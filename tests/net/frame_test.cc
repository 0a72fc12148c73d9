#include "kgacc/net/frame.h"

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "kgacc/util/codec.h"

#include <gtest/gtest.h>

// Wire-framing boundary and fuzz coverage, mirroring wal_test's torn-tail
// and bit-flip cases at the protocol layer. The contract under test:
// malformed input fails the *connection* (a sticky descriptive status from
// Next), and never crashes, hangs, or silently yields a wrong frame.

namespace kgacc {
namespace {

std::vector<uint8_t> Payload(size_t n, uint8_t seed = 7) {
  std::vector<uint8_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(seed + i * 31);
  return p;
}

std::vector<uint8_t> EncodeFrame(uint8_t type,
                                 std::span<const uint8_t> payload) {
  ByteWriter w;
  w.PutFrame(type, payload);
  return w.bytes();
}

TEST(NetFrameTest, RoundTripsSingleFrame) {
  const std::vector<uint8_t> payload = Payload(100);
  const std::vector<uint8_t> wire = EncodeFrame(9, payload);
  FrameAssembler assembler;
  assembler.Feed(wire);
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 9);
  EXPECT_EQ(frame.payload, payload);
  // Nothing trailing.
  have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  EXPECT_FALSE(*have);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(NetFrameTest, RoundTripsEmptyPayload) {
  const std::vector<uint8_t> wire = EncodeFrame(3, {});
  FrameAssembler assembler;
  assembler.Feed(wire);
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 3);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(NetFrameTest, ManyFramesInOneFeed) {
  ByteWriter wire;
  for (uint8_t t = 1; t <= 40; ++t) wire.PutFrame(t, Payload(t * 3, t));
  FrameAssembler assembler;
  assembler.Feed(wire.bytes());
  for (uint8_t t = 1; t <= 40; ++t) {
    NetFrame frame;
    auto have = assembler.Next(&frame);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    ASSERT_TRUE(*have) << "frame " << int(t);
    EXPECT_EQ(frame.type, t);
    EXPECT_EQ(frame.payload, Payload(t * 3, t));
  }
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  EXPECT_FALSE(*have);
}

TEST(NetFrameTest, ByteByByteDeliveryAssemblesEveryFrame) {
  // Worst-case interleaving: the socket hands over one byte per read. The
  // assembler must report "need more" at every prefix and produce each
  // frame exactly at its final byte.
  ByteWriter wire;
  for (uint8_t t = 1; t <= 5; ++t) wire.PutFrame(t, Payload(64, t));
  FrameAssembler assembler;
  int frames = 0;
  for (const uint8_t byte : wire.bytes()) {
    assembler.Feed({&byte, 1});
    NetFrame frame;
    auto have = assembler.Next(&frame);
    ASSERT_TRUE(have.ok()) << have.status().ToString();
    if (*have) {
      ++frames;
      EXPECT_EQ(frame.type, frames);
      EXPECT_EQ(frame.payload, Payload(64, static_cast<uint8_t>(frames)));
    }
  }
  EXPECT_EQ(frames, 5);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(NetFrameTest, RandomChunkingAssemblesEveryFrame) {
  ByteWriter writer;
  for (int t = 1; t <= 30; ++t) {
    writer.PutFrame(static_cast<uint8_t>(t),
                    Payload(static_cast<size_t>(t) * 17 % 300,
                            static_cast<uint8_t>(t)));
  }
  const std::vector<uint8_t>& wire = writer.bytes();
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    FrameAssembler assembler;
    size_t off = 0;
    int frames = 0;
    while (off < wire.size()) {
      const size_t n = std::min<size_t>(
          wire.size() - off, 1 + rng() % 97);
      assembler.Feed({wire.data() + off, n});
      off += n;
      while (true) {
        NetFrame frame;
        auto have = assembler.Next(&frame);
        ASSERT_TRUE(have.ok()) << have.status().ToString();
        if (!*have) break;
        ++frames;
      }
    }
    EXPECT_EQ(frames, 30) << "trial " << trial;
    EXPECT_EQ(assembler.buffered_bytes(), 0u);
  }
}

TEST(NetFrameTest, TruncatedPrefixIsNeedMoreNotError) {
  // Every strict prefix of a valid frame is "in flight", never corrupt:
  // the assembler cannot tell a slow sender from a torn tail until more
  // bytes arrive, so it must keep answering ok/false.
  const std::vector<uint8_t> wire = EncodeFrame(5, Payload(200));
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameAssembler assembler;
    assembler.Feed({wire.data(), cut});
    NetFrame frame;
    auto have = assembler.Next(&frame);
    ASSERT_TRUE(have.ok()) << "cut at " << cut << ": "
                           << have.status().ToString();
    EXPECT_FALSE(*have) << "cut at " << cut;
    EXPECT_TRUE(assembler.stream_error().ok());
  }
}

TEST(NetFrameTest, EveryeSingleBitFlipIsDetected) {
  // The WAL bit-flip case at the wire: flip each bit of an encoded frame
  // and demand either a CRC/structure error or (for length-prefix flips
  // that merely lengthen the frame) a "need more bytes" stall — never a
  // silently delivered wrong frame.
  const std::vector<uint8_t> payload = Payload(48);
  const std::vector<uint8_t> wire = EncodeFrame(7, payload);
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = wire;
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      FrameAssembler assembler;
      assembler.Feed(corrupt);
      NetFrame frame;
      auto have = assembler.Next(&frame);
      if (have.ok() && *have) {
        ADD_FAILURE() << "bit flip at byte " << byte << " bit " << bit
                      << " delivered a frame undetected";
      }
      if (!have.ok()) {
        // Sticky: the stream is dead for good.
        EXPECT_FALSE(assembler.stream_error().ok());
        auto again = assembler.Next(&frame);
        EXPECT_FALSE(again.ok());
        EXPECT_FALSE(have.status().message().empty());
      }
    }
  }
}

TEST(NetFrameTest, CrcMismatchIsStickyEvenAfterMoreValidFrames) {
  // Once the stream is corrupt there is no trustworthy frame boundary;
  // feeding perfectly valid frames afterwards must not resurrect it.
  std::vector<uint8_t> wire = EncodeFrame(2, Payload(32));
  wire[wire.size() - 1] ^= 0xff;  // smash the CRC
  FrameAssembler assembler;
  assembler.Feed(wire);
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_FALSE(have.ok());
  EXPECT_EQ(have.status().code(), StatusCode::kIoError);
  assembler.Feed(EncodeFrame(2, Payload(32)));
  auto again = assembler.Next(&frame);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), have.status().code());
}

TEST(NetFrameTest, FrameAtTheCapIsDelivered) {
  const std::vector<uint8_t> payload = Payload(kDefaultMaxFrameBytes);
  FrameAssembler assembler;
  assembler.Feed(EncodeFrame(4, payload));
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok()) << have.status().ToString();
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 4);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
}

TEST(NetFrameTest, OneByteOverTheCapFailsBeforeBuffering) {
  // A length prefix one past the cap must fail at once, stickily: the
  // assembler may not wait for (or buffer) a payload that large.
  const std::vector<uint8_t> wire =
      EncodeFrame(1, Payload(kDefaultMaxFrameBytes + 1));
  // Feed just the header: the type byte and the 3-byte varint of 2^20 + 1.
  // The cap check needs no payload bytes.
  constexpr size_t kHeader = 4;
  FrameAssembler assembler;
  assembler.Feed({wire.data(), kHeader});
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_FALSE(have.ok());
  EXPECT_EQ(have.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(have.status().message().empty());
  EXPECT_EQ(assembler.buffered_bytes(), kHeader);
  // The rest of the frame does not revive the stream.
  assembler.Feed({wire.data() + kHeader, wire.size() - kHeader});
  auto again = assembler.Next(&frame);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kOutOfRange);
}

TEST(NetFrameTest, UnterminatedVarintPrefixIsRejected) {
  // Ten continuation bytes with the high bit set: no valid u64 varint is
  // that long, so the stream is structurally corrupt, not merely slow.
  FrameAssembler assembler;
  std::vector<uint8_t> junk(1, 1);  // type byte
  junk.insert(junk.end(), 10, 0x80);
  assembler.Feed(junk);
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_FALSE(have.ok());
  EXPECT_FALSE(have.status().message().empty());
}

TEST(NetFrameTest, RandomGarbageNeverCrashesOrHangs) {
  // Pure fuzz: random bytes in random chunk sizes. Any outcome is legal
  // except a crash, an infinite "need more" on a structurally dead stream
  // after the cap, or a delivered frame claiming a huge payload.
  std::mt19937 rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    FrameAssembler assembler;
    bool dead = false;
    for (int chunk = 0; chunk < 64 && !dead; ++chunk) {
      std::vector<uint8_t> bytes(1 + rng() % 200);
      for (auto& b : bytes) b = static_cast<uint8_t>(rng());
      assembler.Feed(bytes);
      while (true) {
        NetFrame frame;
        auto have = assembler.Next(&frame);
        if (!have.ok()) {
          dead = true;
          break;
        }
        if (!*have) break;
        EXPECT_LE(frame.payload.size(), kDefaultMaxFrameBytes);
      }
    }
    // Either the stream died with a sticky error, or everything the fuzz
    // produced happened to parse — both fine; memory stayed bounded.
    EXPECT_LE(assembler.buffered_bytes(), kDefaultMaxFrameBytes + 16u);
  }
}

TEST(NetFrameTest, InterleavedPartialFramesAcrossFeeds) {
  // A frame boundary split inside the CRC while the next frame's bytes
  // ride in the same Feed call — the assembler must keep both straight.
  const std::vector<uint8_t> a = EncodeFrame(1, Payload(50, 1));
  const std::vector<uint8_t> b = EncodeFrame(2, Payload(60, 2));
  std::vector<uint8_t> wire = a;
  wire.insert(wire.end(), b.begin(), b.end());
  const size_t split = a.size() - 2;  // mid-CRC of frame a
  FrameAssembler assembler;
  assembler.Feed({wire.data(), split});
  NetFrame frame;
  auto have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  EXPECT_FALSE(*have);
  assembler.Feed({wire.data() + split, wire.size() - split});
  have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 1);
  have = assembler.Next(&frame);
  ASSERT_TRUE(have.ok());
  ASSERT_TRUE(*have);
  EXPECT_EQ(frame.type, 2);
}

}  // namespace
}  // namespace kgacc
