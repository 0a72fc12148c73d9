// Seeded mutation fuzzing of the one frame decoder, through every reader of
// untrusted log or wire bytes: `AnnotationStore::Open` (recovery),
// `VerifyStoreLog` (the offline verifier) and `FrameAssembler` (the kgaccd
// read side). A valid log holding annotation, checkpoint, ledger and
// compaction-trailer frames is mutated with fixed seeds — bit flips,
// truncations, rewritten length prefixes, and payload rewrites (garbage
// bytes, or fields of random magnitude) under a recomputed CRC — and every
// mutant must end in an error status or a torn-tail truncation: never a
// crash, a hang, or an allocation the input length does not justify.
// Because all three readers share one decoder, they must also agree on
// where the intact prefix ends.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "kgacc/net/frame.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/store/compaction.h"
#include "kgacc/store/log_format.h"
#include "kgacc/util/codec.h"
#include "../largest_alloc.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/kgacc_frame_fuzz_test_" + name + "_" +
         std::to_string(::getpid());
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// A compacted log (records, checkpoints, ledgers, trailer) followed by
/// post-compaction traffic of every frame type.
std::vector<uint8_t> SeedLog() {
  const std::string path = TempPath("seed");
  std::remove(path.c_str());
  {
    auto store = AnnotationStore::Open(path);
    EXPECT_TRUE(store.ok());
    for (uint64_t i = 0; i < 12; ++i) {
      EXPECT_TRUE((*store)->Append(1, i, i % 3, i % 2 == 0).ok());
    }
    const std::vector<uint8_t> snapshot(40, 0x5a);
    EXPECT_TRUE((*store)->AppendCheckpoint(1, snapshot).ok());
    EXPECT_TRUE((*store)->AppendCheckpoint(2, snapshot).ok());
    EXPECT_TRUE((*store)->AppendTenantSpend("acme", 12, 300).ok());
    EXPECT_TRUE((*store)->Compact().ok());
    EXPECT_TRUE((*store)->Append(2, 100, 1, true).ok());
    EXPECT_TRUE((*store)->AppendCheckpoint(2, {}).ok());
    EXPECT_TRUE((*store)->AppendTenantSpend("acme", 1, 20).ok());
  }
  std::vector<uint8_t> bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

/// Start offsets of the seed log's frames, grouped by frame type.
std::map<uint8_t, std::vector<size_t>> FramesByType(
    const std::vector<uint8_t>& log) {
  std::map<uint8_t, std::vector<size_t>> frames;
  size_t pos = walfmt::kMagicSize;
  while (pos < log.size()) {
    auto frame = DecodeFrame(std::span<const uint8_t>(log).subspan(pos),
                             walfmt::kMaxPayloadBytes);
    if (!frame.ok() || !frame->has_value()) break;
    frames[(*frame)->type].push_back(pos);
    pos += (*frame)->size;
  }
  return frames;
}

/// A frame start with every frame type equally likely, so the one trailer
/// is mutated as often as the many annotation records.
size_t PickFrame(const std::map<uint8_t, std::vector<size_t>>& frames,
                 std::mt19937_64* rng) {
  auto type = frames.begin();
  std::advance(type, (*rng)() % frames.size());
  return type->second[(*rng)() % type->second.size()];
}

/// Replaces the length prefix of the frame at `start` with `len`; the
/// payload and CRC bytes stay where they were.
void RewriteLength(std::vector<uint8_t>* log, size_t start, uint64_t len) {
  const auto frame = DecodeFrame(
      std::span<const uint8_t>(*log).subspan(start), walfmt::kMaxPayloadBytes);
  const size_t old_prefix =
      (*frame)->size - 1 - (*frame)->payload.size() - 4;
  ByteWriter prefix;
  prefix.Varint(len);
  log->erase(log->begin() + start + 1,
             log->begin() + start + 1 + old_prefix);
  log->insert(log->begin() + start + 1, prefix.bytes().begin(),
              prefix.bytes().end());
}

/// Replaces the payload of the frame at `start` and re-seals its CRC, so
/// the damage reaches the payload decoder instead of the frame check.
/// `varints` fills the new payload with fields of random magnitude (huge
/// keys, counts and string lengths); otherwise a few bytes of the old
/// payload are overwritten, or it is replaced by random bytes.
void RewritePayload(std::vector<uint8_t>* log, size_t start, bool varints,
                    std::mt19937_64* rng) {
  const auto frame = DecodeFrame(
      std::span<const uint8_t>(*log).subspan(start), walfmt::kMaxPayloadBytes);
  const uint8_t type = (*frame)->type;
  const size_t old_size = (*frame)->size;
  ByteWriter payload;
  if (varints) {
    const int fields = 1 + static_cast<int>((*rng)() % 6);
    for (int k = 0; k < fields; ++k) {
      payload.Varint((*rng)() >> ((*rng)() % 64));
    }
  } else if ((*frame)->payload.empty() || (*rng)() % 4 == 0) {
    const size_t n = (*rng)() % 24;
    for (size_t k = 0; k < n; ++k) {
      payload.U8(static_cast<uint8_t>((*rng)()));
    }
  } else {
    std::vector<uint8_t> bytes((*frame)->payload.begin(),
                               (*frame)->payload.end());
    for (int k = 0; k < 3; ++k) {
      bytes[(*rng)() % bytes.size()] = static_cast<uint8_t>((*rng)());
    }
    payload.Rest(bytes);
  }
  ByteWriter sealed;
  sealed.PutFrame(type, payload.span());
  log->erase(log->begin() + start, log->begin() + start + old_size);
  log->insert(log->begin() + start, sealed.bytes().begin(),
              sealed.bytes().end());
}

constexpr int kMutationKinds = 5;

std::vector<uint8_t> Mutate(
    const std::vector<uint8_t>& seed,
    const std::map<uint8_t, std::vector<size_t>>& frames, int kind,
    std::mt19937_64* rng) {
  std::vector<uint8_t> log = seed;
  const size_t start = PickFrame(frames, rng);
  switch (kind) {
    case 0: {  // One to three bit flips anywhere.
      const int flips = 1 + static_cast<int>((*rng)() % 3);
      for (int k = 0; k < flips; ++k) {
        log[(*rng)() % log.size()] ^=
            static_cast<uint8_t>(1u << ((*rng)() % 8));
      }
      break;
    }
    case 1:  // Truncation (never to empty: an empty file is a fresh log).
      log.resize(1 + (*rng)() % (log.size() - 1));
      break;
    case 2: {  // A rewritten length prefix, small to absurd.
      const uint64_t lengths[] = {0,
                                  (*rng)() % 64,
                                  (*rng)() % 100000,
                                  walfmt::kMaxPayloadBytes,
                                  walfmt::kMaxPayloadBytes + 1,
                                  (*rng)()};
      RewriteLength(&log, start, lengths[(*rng)() % 6]);
      break;
    }
    default:  // Payload garbage under a valid CRC.
      RewritePayload(&log, start, /*varints=*/kind == 4, rng);
      break;
  }
  return log;
}

TEST(FrameFuzzTest, MutantsFailCleanlyAndAllReadersAgree) {
  const std::vector<uint8_t> seed = SeedLog();
  const auto frames = FramesByType(seed);
  ASSERT_EQ(frames.size(), 4u);  // Annotation, checkpoint, trailer, ledger.
  const std::string path = TempPath("mutant");
  // Fixed allocations (index shards, vector growth) are input-independent;
  // everything else may scale with the input, never with a length prefix.
  constexpr size_t kFixedBytes = size_t{64} << 10;

  int opened = 0, torn = 0, rejected = 0;
  for (uint64_t seed_index = 0; seed_index < 300; ++seed_index) {
    std::mt19937_64 rng(0x6b676163 + seed_index);
    const int kind = static_cast<int>(seed_index % kMutationKinds);
    const std::vector<uint8_t> mutant = Mutate(seed, frames, kind, &rng);
    SCOPED_TRACE("seed " + std::to_string(seed_index) + " kind " +
                 std::to_string(kind));
    WriteFile(path, mutant);
    testing_alloc::largest_alloc.store(0);

    // The verifier is read-only: the file is byte-identical afterwards.
    const Result<StoreVerifyInfo> verify = VerifyStoreLog(path);
    ASSERT_EQ(ReadFile(path), mutant);

    // The wire reader over the same frames, in random chunks: it stops
    // exactly where the log scan does. Its cap is below the store's, but a
    // mutant is far smaller than either, so a length prefix between the two
    // stops both readers at the same frame (an error on the wire, a torn
    // tail in the log).
    FrameAssembler assembler;
    uint64_t wire_frames = 0;
    bool stream_failed = false;
    size_t off = walfmt::kMagicSize;
    while (off < mutant.size()) {
      const size_t n = std::min<size_t>(mutant.size() - off, 1 + rng() % 61);
      assembler.Feed({mutant.data() + off, n});
      off += n;
      while (!stream_failed) {
        NetFrame frame;
        const Result<bool> have = assembler.Next(&frame);
        if (!have.ok()) {
          stream_failed = true;
          break;
        }
        if (!*have) break;
        ++wire_frames;
      }
    }

    const Result<std::unique_ptr<AnnotationStore>> store =
        AnnotationStore::Open(path);
    EXPECT_LE(testing_alloc::largest_alloc.load(),
              2 * mutant.size() + kFixedBytes);

    // One decoder: recovery and the verifier accept and reject alike, and
    // agree on the intact prefix and its contents.
    ASSERT_EQ(store.ok(), verify.ok())
        << (store.ok() ? verify.status() : store.status()).ToString();
    if (!store.ok()) {
      ++rejected;
      continue;
    }
    const AnnotationStoreStats& stats = (*store)->stats();
    EXPECT_EQ(stats.recovery.bytes_kept, verify->bytes_valid);
    EXPECT_EQ(stats.recovery.truncated_tail, !verify->clean_tail);
    EXPECT_EQ(stats.recovery.bytes_kept + stats.recovery.bytes_discarded,
              mutant.size());
    EXPECT_EQ(stats.records_replayed, verify->records);
    EXPECT_EQ(stats.checkpoints_replayed, verify->checkpoints);
    EXPECT_EQ(stats.ledgers_replayed, verify->ledgers);
    EXPECT_EQ(wire_frames, stats.recovery.frames_replayed);
    EXPECT_EQ(assembler.buffered_bytes(),
              mutant.size() - stats.recovery.bytes_kept);
    if (stats.recovery.truncated_tail) {
      ++torn;
    } else {
      ++opened;
    }

    // Recovery truncated the tail for good: a second open is clean.
    const uint64_t labeled = (*store)->num_labeled();
    const auto again = AnnotationStore::Open(path);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_FALSE((*again)->stats().recovery.truncated_tail);
    EXPECT_EQ((*again)->num_labeled(), labeled);
  }
  std::remove(path.c_str());
  // The mix exercises every outcome.
  EXPECT_GT(opened, 0);
  EXPECT_GT(torn, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace kgacc
