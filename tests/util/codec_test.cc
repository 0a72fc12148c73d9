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

#include "kgacc/net/protocol.h"
#include "kgacc/store/log_format.h"
#include "kgacc/store/wal.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

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
  for (const uint64_t v : values) w.PutVarint(v);
  ByteReader r(w.span());
  for (const uint64_t v : values) {
    const auto got = r.Varint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
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
  for (const int64_t v : values) w.PutZigzag(v);
  ByteReader r(w.span());
  for (const int64_t v : values) {
    const auto got = r.Zigzag();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(CodecTest, SmallMagnitudesEncodeSmall) {
  ByteWriter w;
  w.PutVarint(5);
  EXPECT_EQ(w.size(), 1u);
  w.Clear();
  w.PutZigzag(-3);
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
  for (const double v : values) w.PutDouble(v);
  ByteReader r(w.span());
  for (const double v : values) {
    const auto got = r.Double();
    ASSERT_TRUE(got.ok());
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &v, sizeof(v));
    std::memcpy(&got_bits, &*got, sizeof(*got));
    EXPECT_EQ(got_bits, want_bits);  // Bitwise, so NaN and -0.0 count too.
  }
}

TEST(CodecTest, StringsAndLengthPrefixedBytes) {
  ByteWriter w;
  w.PutString("TWCS");
  w.PutString("");
  const std::vector<uint8_t> blob = {0x00, 0xff, 0x80, 0x7f};
  w.PutLengthPrefixed({blob.data(), blob.size()});
  ByteReader r(w.span());
  auto s1 = r.String();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(*s1, "TWCS");
  auto s2 = r.String();
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, "");
  auto raw = r.LengthPrefixed();
  ASSERT_TRUE(raw.ok());
  ASSERT_EQ(raw->size(), blob.size());
  EXPECT_TRUE(std::equal(raw->begin(), raw->end(), blob.begin()));
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
          w.PutVarint(rec.u);
          break;
        case 1:
          rec.z = static_cast<int64_t>(rng.Next()) >>
                  static_cast<int>(rng.UniformInt(64));
          w.PutZigzag(rec.z);
          break;
        case 2:
          rec.d = rng.Normal() * std::exp(rng.Uniform(-300.0, 300.0));
          w.PutDouble(rec.d);
          break;
        case 3:
          rec.u = rng.Next();
          w.PutFixed64(rec.u);
          break;
        case 4: {
          const size_t len = rng.UniformInt(32);
          rec.s.resize(len);
          for (size_t c = 0; c < len; ++c) {
            rec.s[c] = static_cast<char>(rng.UniformInt(256));
          }
          w.PutString(rec.s);
          break;
        }
      }
      records.push_back(rec);
    }
    ByteReader r(w.span());
    for (const Record& rec : records) {
      switch (rec.type) {
        case 0: {
          auto got = r.Varint();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.u);
          break;
        }
        case 1: {
          auto got = r.Zigzag();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.z);
          break;
        }
        case 2: {
          auto got = r.Double();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.d);
          break;
        }
        case 3: {
          auto got = r.Fixed64();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.u);
          break;
        }
        case 4: {
          auto got = r.String();
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, rec.s);
          break;
        }
      }
    }
    EXPECT_TRUE(r.empty());
  }
}

TEST(CodecTest, TruncatedReadsFailCleanlyAtEveryPrefix) {
  ByteWriter w;
  w.PutVarint(1u << 20);
  w.PutDouble(3.14);
  w.PutString("abcdef");
  w.PutFixed32(42);
  // Every strict prefix must yield at least one error and never read past
  // the end; the full buffer must parse.
  for (size_t cut = 0; cut < w.size(); ++cut) {
    ByteReader r(w.span().subspan(0, cut));
    bool failed = false;
    failed |= !r.Varint().ok();
    failed |= !r.Double().ok();
    failed |= !r.String().ok();
    failed |= !r.Fixed32().ok();
    EXPECT_TRUE(failed) << "prefix of " << cut << " bytes parsed fully";
  }
  ByteReader full(w.span());
  EXPECT_TRUE(full.Varint().ok());
  EXPECT_TRUE(full.Double().ok());
  EXPECT_TRUE(full.String().ok());
  EXPECT_TRUE(full.Fixed32().ok());
  EXPECT_TRUE(full.empty());
}

TEST(CodecTest, OverlongVarintRejected) {
  // 11 continuation bytes: no canonical uint64 encodes this long.
  const std::vector<uint8_t> overlong(11, 0x80);
  ByteReader r({overlong.data(), overlong.size()});
  EXPECT_FALSE(r.Varint().ok());
  // 10 bytes whose final group carries bits beyond 2^64.
  std::vector<uint8_t> overflow(10, 0xff);
  overflow[9] = 0x7f;
  ByteReader r2({overflow.data(), overflow.size()});
  EXPECT_FALSE(r2.Varint().ok());
}

TEST(CodecTest, LengthPrefixLargerThanBufferRejected) {
  ByteWriter w;
  w.PutVarint(1000);  // Claims 1000 bytes; none follow.
  ByteReader r(w.span());
  EXPECT_FALSE(r.LengthPrefixed().ok());
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

TEST(CodecTest, FrameGoldenBytesOnDiskAndOnWire) {
  // type 7, payload "kgacc": [07][05]["kgacc"][crc32c LE]. The store log
  // and the kgaccd wire share this encoding; pinning it by value proves
  // neither format changed when their encoders merged.
  const std::vector<uint8_t> golden = {0x07, 0x05, 0x6b, 0x67, 0x61, 0x63,
                                       0x63, 0x0a, 0x15, 0xbd, 0x7a};
  const std::string text = "kgacc";
  const std::span<const uint8_t> payload(
      reinterpret_cast<const uint8_t*>(text.data()), text.size());

  ByteWriter w;
  w.PutFrame(7, payload);
  EXPECT_EQ(w.bytes(), golden);
  // The wire encoder every kgaccd message goes through.
  const auto raw = [&payload](int) {
    return std::vector<uint8_t>(payload.begin(), payload.end());
  };
  EXPECT_EQ(FrameOf(static_cast<MessageType>(7), raw, 0), golden);

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
  w.PutU8(9);  // First byte of a following frame.
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
