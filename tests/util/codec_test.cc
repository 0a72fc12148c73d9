// Codec round trips: every primitive must survive write→read bit-exact,
// and every malformed input (truncation, overlong varints) must surface as
// a status, never as garbage or UB. The fuzz-style cases drive randomized
// typed record streams through a full round trip — the property the WAL
// and snapshot layers inherit. The frame cases pin the one frame codec:
// its bytes on disk and on the wire, and its three decode outcomes.

#include "kgacc/util/codec.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "kgacc/store/log_format.h"
#include "kgacc/store/wal.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

enum class Color : uint8_t { kRed, kGreen, kBlue };

Result<Color> ColorFromByte(uint8_t byte) {
  if (byte > 2) return Status::InvalidArgument("color out of range");
  return static_cast<Color>(byte);
}

TEST(CodecTest, VarintBoundaryRoundTrips) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (uint64_t{1} << 32) - 1,
                             uint64_t{1} << 32,
                             uint64_t{1} << 63,
                             std::numeric_limits<uint64_t>::max()};
  ByteWriter w;
  for (const uint64_t v : values) w.Varint(v);
  ByteReader r(w.span());
  for (const uint64_t v : values) {
    uint64_t got = 0;
    r.Varint(got);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(r.empty());
}

TEST(CodecTest, ZigzagBoundaryRoundTrips) {
  const int64_t values[] = {0,
                            -1,
                            1,
                            -64,
                            63,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  ByteWriter w;
  for (const int64_t v : values) w.Zigzag(v);
  ByteReader r(w.span());
  for (const int64_t v : values) {
    int64_t got = 0;
    r.Zigzag(got);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(got, v);
  }
}

TEST(CodecTest, SmallMagnitudesEncodeSmall) {
  ByteWriter w;
  w.Varint(5);
  EXPECT_EQ(w.size(), 1u);
  w.Clear();
  w.Zigzag(-3);
  EXPECT_EQ(w.size(), 1u);
}

TEST(CodecTest, DoubleRoundTripsAreBitExact) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0 / 3.0,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           6.02214076e23};
  ByteWriter w;
  for (const double v : values) w.Double(v);
  ByteReader r(w.span());
  for (const double v : values) {
    double got = 0.0;
    r.Double(got);
    ASSERT_TRUE(r.ok());
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &v, sizeof(v));
    std::memcpy(&got_bits, &got, sizeof(got));
    EXPECT_EQ(got_bits, want_bits);  // Bitwise, so NaN and -0.0 count too.
  }
}

TEST(CodecTest, StringsAndLengthPrefixedBytes) {
  ByteWriter w;
  w.String("TWCS");
  w.String("");
  const std::vector<uint8_t> blob = {0x00, 0xff, 0x80, 0x7f};
  w.Bytes({blob.data(), blob.size()});
  ByteReader r(w.span());
  std::string s1, s2 = "not empty";
  std::span<const uint8_t> raw;
  r.String(s1);
  r.String(s2);
  r.Bytes(raw);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(s1, "TWCS");
  EXPECT_EQ(s2, "");
  ASSERT_EQ(raw.size(), blob.size());
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), blob.begin()));
  EXPECT_TRUE(r.empty());
}

TEST(CodecTest, FuzzRandomRecordStreamsRoundTrip) {
  // Randomized typed records: interleave every primitive in random order
  // and length, write, read back, compare. 64 records per round, many
  // rounds — the layout bugs this catches (mis-ordered fields, wrong
  // widths) are exactly the snapshot-layer failure modes.
  Rng rng(20250729);
  for (int round = 0; round < 200; ++round) {
    struct Record {
      int type;
      uint64_t u;
      int64_t z;
      double d;
      std::string s;
    };
    std::vector<Record> records;
    ByteWriter w;
    const int n = 1 + static_cast<int>(rng.UniformInt(64));
    for (int i = 0; i < n; ++i) {
      Record rec;
      rec.type = static_cast<int>(rng.UniformInt(5));
      switch (rec.type) {
        case 0:
          rec.u = rng.Next() >> rng.UniformInt(64);
          w.Varint(rec.u);
          break;
        case 1:
          rec.z = static_cast<int64_t>(rng.Next()) >>
                  static_cast<int>(rng.UniformInt(64));
          w.Zigzag(rec.z);
          break;
        case 2:
          rec.d = rng.Normal() * std::exp(rng.Uniform(-300.0, 300.0));
          w.Double(rec.d);
          break;
        case 3:
          rec.u = rng.Next();
          w.Fixed64(rec.u);
          break;
        case 4: {
          const size_t len = rng.UniformInt(32);
          rec.s.resize(len);
          for (size_t c = 0; c < len; ++c) {
            rec.s[c] = static_cast<char>(rng.UniformInt(256));
          }
          w.String(rec.s);
          break;
        }
      }
      records.push_back(rec);
    }
    ByteReader r(w.span());
    for (const Record& rec : records) {
      switch (rec.type) {
        case 0: {
          uint64_t got = 0;
          r.Varint(got);
          EXPECT_EQ(got, rec.u);
          break;
        }
        case 1: {
          int64_t got = 0;
          r.Zigzag(got);
          EXPECT_EQ(got, rec.z);
          break;
        }
        case 2: {
          double got = 0.0;
          r.Double(got);
          EXPECT_EQ(got, rec.d);
          break;
        }
        case 3: {
          uint64_t got = 0;
          r.Fixed64(got);
          EXPECT_EQ(got, rec.u);
          break;
        }
        case 4: {
          std::string got;
          r.String(got);
          EXPECT_EQ(got, rec.s);
          break;
        }
      }
      ASSERT_TRUE(r.ok());
    }
    EXPECT_TRUE(r.empty());
  }
}

TEST(CodecTest, TruncatedReadsFailCleanlyAtEveryPrefix) {
  ByteWriter w;
  w.Varint(1u << 20);
  w.Double(3.14);
  w.String("abcdef");
  w.Fixed32(42);
  // Every strict prefix must yield an error and never read past the end;
  // the full buffer must parse.
  const auto read_all = [](ByteReader& r) {
    uint64_t u = 0;
    double d = 0.0;
    std::string s;
    uint32_t f = 0;
    r.Varint(u);
    r.Double(d);
    r.String(s);
    r.Fixed32(f);
  };
  for (size_t cut = 0; cut < w.size(); ++cut) {
    ByteReader r(w.span().subspan(0, cut));
    read_all(r);
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes parsed fully";
  }
  ByteReader full(w.span());
  read_all(full);
  EXPECT_TRUE(full.ok());
  EXPECT_TRUE(full.empty());
}

TEST(CodecTest, OverlongVarintRejected) {
  // 11 continuation bytes: no canonical uint64 encodes this long.
  const std::vector<uint8_t> overlong(11, 0x80);
  uint64_t v = 0;
  ByteReader r({overlong.data(), overlong.size()});
  r.Varint(v);
  EXPECT_FALSE(r.ok());
  // 10 bytes whose final group carries bits beyond 2^64.
  std::vector<uint8_t> overflow(10, 0xff);
  overflow[9] = 0x7f;
  ByteReader r2({overflow.data(), overflow.size()});
  r2.Varint(v);
  EXPECT_FALSE(r2.ok());
}

TEST(CodecTest, LengthPrefixLargerThanBufferRejected) {
  ByteWriter w;
  w.Varint(1000);  // Claims 1000 bytes; none follow.
  ByteReader r(w.span());
  std::span<const uint8_t> raw;
  r.Bytes(raw);
  EXPECT_FALSE(r.ok());
}

TEST(CodecTest, Crc32cKnownVectorsAndSensitivity) {
  // RFC 3720 test vector: CRC32C of 32 zero bytes.
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  // "123456789" — the classic check value.
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xe3069283u);
  // Every single-bit flip must change the checksum.
  std::vector<uint8_t> buf(16, 0xa5);
  const uint32_t base = Crc32c(buf.data(), buf.size());
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= uint8_t(1) << bit;
      EXPECT_NE(Crc32c(buf.data(), buf.size()), base);
      buf[byte] ^= uint8_t(1) << bit;
    }
  }
  // Chaining across fragments equals one pass.
  EXPECT_EQ(Crc32c(buf.data() + 4, buf.size() - 4,
                   Crc32c(buf.data(), 4)),
            base);
}

/// A record exercising every field kind.
struct SampleRecord {
  struct Point {
    uint64_t n = 0;
    double x = 0.0;
  };
  uint8_t tag = 0;
  uint32_t crc = 0;
  bool flag = false;
  int depth = 0;
  double value = 0.0;
  uint64_t count = 0;
  std::string name;
  std::span<const uint8_t> blob;
  Color color = Color::kGreen;
  std::vector<Point> points;

  static void Fields(auto& r, auto& c) {
    c.U8(r.tag);
    c.Fixed32(r.crc);
    c.Bool(r.flag);
    c.Zigzag(r.depth);
    c.Double(r.value);
    c.Varint(r.count);
    c.String(r.name);
    c.Bytes(r.blob);
    c.Enum(r.color, ColorFromByte);
    c.List(r.points, 9, [](auto& p, auto& pc) {
      pc.Varint(p.n);
      pc.Double(p.x);
    });
  }
};

std::vector<uint8_t> EncodeSample(const SampleRecord& r) {
  ByteWriter w;
  EncodeFields(r, &w);
  return w.bytes();
}

TEST(CodecTest, FieldListsRoundTripAndEveryPrefixFails) {
  const std::vector<uint8_t> blob = {1, 2, 3};
  SampleRecord in;
  in.crc = 0xdeadbeef;
  in.flag = true;
  in.depth = -7;
  in.value = -0.25;
  in.tag = 9;
  in.count = 300;
  in.name = "kg";
  in.blob = blob;
  in.color = Color::kBlue;
  in.points = {{1, 0.5}, {2, 1.5}};
  const std::vector<uint8_t> bytes = EncodeSample(in);

  const Result<SampleRecord> out = DecodeFields<SampleRecord>(bytes, "sample");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(EncodeSample(*out), bytes);
  EXPECT_EQ(out->depth, -7);
  EXPECT_EQ(std::vector<uint8_t>(out->blob.begin(), out->blob.end()), blob);
  EXPECT_EQ(out->color, Color::kBlue);
  ASSERT_EQ(out->points.size(), 2u);
  EXPECT_EQ(out->points[1].x, 1.5);

  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(DecodeFields<SampleRecord>(
                     std::span<const uint8_t>(bytes).first(n), "sample")
                     .ok())
        << "prefix " << n;
  }
  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeFields<SampleRecord>(trailing, "sample").ok());
}

TEST(CodecTest, FrameGoldenBytesOnDiskAndOnWire) {
  // type 7, payload "kgacc": [07][05]["kgacc"][crc32c LE]. The store log
  // and the kgaccd wire share this encoding; pinning it by value proves
  // neither format changed when their encoders merged. (kgaccd's `FrameOf`
  // writes through this `PutFrame`; tests/net/protocol_test.cc pins its
  // frames per message.)
  const std::vector<uint8_t> golden = {0x07, 0x05, 0x6b, 0x67, 0x61, 0x63,
                                       0x63, 0x0a, 0x15, 0xbd, 0x7a};
  const std::string text = "kgacc";
  const std::span<const uint8_t> payload(
      reinterpret_cast<const uint8_t*>(text.data()), text.size());

  ByteWriter w;
  w.PutFrame(7, payload);
  EXPECT_EQ(w.bytes(), golden);

  const std::string path = testing::TempDir() + "/kgacc_codec_golden_" +
                           std::to_string(::getpid());
  std::remove(path.c_str());
  {
    auto log = WriteAheadLog::Open(path, nullptr);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_TRUE((*log)->Append(7, payload).ok());
  }
  std::vector<uint8_t> file(64);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  file.resize(std::fread(file.data(), 1, file.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_EQ(file.size(), walfmt::kMagicSize + golden.size());
  EXPECT_EQ(std::string(file.begin(), file.begin() + walfmt::kMagicSize),
            "kgacWAL1");
  EXPECT_EQ(std::vector<uint8_t>(file.begin() + walfmt::kMagicSize,
                                 file.end()),
            golden);
  EXPECT_EQ(FrameSize(text.size()), golden.size());
}

TEST(CodecTest, DecodeFrameViewsPayloadInPlaceAndRejectsOverflow) {
  // The need-more, cap, overlong and CRC outcomes are pinned through
  // FrameAssembler in net/frame_test.cc; these two are not.
  ByteWriter w;
  w.PutFrame(3, std::vector<uint8_t>(200, 0xab));  // Two-byte length prefix.
  w.U8(9);  // First byte of a following frame.
  auto got = DecodeFrame(w.span(), 1024);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ((*got)->type, 3);
  EXPECT_EQ((*got)->payload.data(), w.span().data() + 3);
  EXPECT_EQ((*got)->payload.size(), 200u);
  EXPECT_EQ((*got)->size, FrameSize(200));

  // A tenth length byte above 1 overflows 64 bits, whatever the cap.
  std::vector<uint8_t> overflow(1, 1);
  overflow.insert(overflow.end(), 9, 0xff);
  overflow.push_back(0x02);
  auto bad = DecodeFrame(overflow, ~uint64_t{0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace kgacc
