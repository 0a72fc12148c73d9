// Seeded mutation fuzzing of the one decoder of checkpoint bytes,
// `CheckpointManager::Resume`. A finished audit's record (version byte,
// step-count varint, session fingerprint) is mutated with fixed seeds —
// truncations, bit flips, every wrong version byte, fingerprints of the
// wrong length, huge and over-long step counts, random garbage — and each
// mutant is stored as the audit's latest checkpoint and resumed into a
// fresh session. Every mutant must end in an error status or a replay
// that stays inside the audit: never a crash or a hang. Because the store
// holds every label of the finished audit and a count past its end fails
// once the audit is done, no mutant may step past the audit or call the
// oracle.

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

constexpr uint64_t kAuditId = 7;
constexpr uint64_t kSeed = 99;

class CheckpointFuzzTest : public testing::Test {
 protected:
  void SetUp() override {
    SyntheticKgConfig cfg;
    cfg.num_clusters = 150;
    cfg.mean_cluster_size = 3.0;
    cfg.accuracy = 0.85;
    cfg.seed = 4;
    kg_ = std::make_unique<SyntheticKg>(*SyntheticKg::Create(cfg));
    path_ = testing::TempDir() + "/kgacc_checkpoint_fuzz_test_" +
            std::to_string(::getpid());
    std::remove(path_.c_str());
    auto store = AnnotationStore::Open(path_);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();

    TwcsSampler sampler(*kg_, TwcsConfig{});
    DurableAudit audit(sampler, &oracle_, store_.get(), kAuditId, config_,
                       kSeed);
    const auto result = audit.Run();
    ASSERT_TRUE(result.ok());
    steps_ = static_cast<uint64_t>(audit.session().iterations());
    ASSERT_GE(steps_, 3u);
    record_ = *store_->LatestCheckpoint(kAuditId);
    ASSERT_GT(record_.size(), 2u);
    fingerprint_at_ = FingerprintAt(record_);
    ASSERT_LT(fingerprint_at_, record_.size());
  }

  /// Offset of the fingerprint (after the version byte and the count).
  static size_t FingerprintAt(const std::vector<uint8_t>& record) {
    ByteReader reader({record.data(), record.size()});
    uint8_t version = 0;
    uint64_t steps = 0;
    reader.U8(version);
    reader.Varint(steps);
    if (!reader.ok()) return record.size() + 1;
    return record.size() - reader.remaining();
  }

  void TearDown() override {
    store_.reset();
    std::remove(path_.c_str());
  }

  /// Stores `record` as the latest checkpoint and resumes a fresh session
  /// from it, checking the replay never leaves the audit.
  Status ResumeFrom(const std::vector<uint8_t>& record) {
    EXPECT_TRUE(store_->AppendCheckpoint(kAuditId, record).ok());
    StoredAnnotator annotator(&oracle_, store_.get(), kAuditId);
    TwcsSampler sampler(*kg_, TwcsConfig{});
    EvaluationSession session(sampler, annotator, config_, kSeed);
    const Status status =
        CheckpointManager(store_.get(), kAuditId).Resume(&session);
    EXPECT_LE(static_cast<uint64_t>(session.iterations()), steps_);
    EXPECT_EQ(annotator.oracle_calls(), 0u);
    return status;
  }

  /// The valid record with its step count replaced by `steps`.
  std::vector<uint8_t> WithSteps(uint64_t steps) const {
    ByteWriter w;
    w.U8(record_[0]);
    w.Varint(steps);
    w.Rest(std::span<const uint8_t>(record_).subspan(fingerprint_at_));
    return w.bytes();
  }

  std::unique_ptr<SyntheticKg> kg_;
  std::string path_;
  std::unique_ptr<AnnotationStore> store_;
  OracleAnnotator oracle_;
  EvaluationConfig config_;
  uint64_t steps_ = 0;
  std::vector<uint8_t> record_;
  size_t fingerprint_at_ = 0;
};

TEST_F(CheckpointFuzzTest, TheIntactRecordResumesToTheEnd) {
  EXPECT_TRUE(ResumeFrom(record_).ok());
  for (uint64_t steps = 0; steps <= steps_; ++steps) {
    EXPECT_TRUE(ResumeFrom(WithSteps(steps)).ok()) << steps;
  }
}

TEST_F(CheckpointFuzzTest, EveryTruncationFails) {
  for (size_t n = 0; n < record_.size(); ++n) {
    const std::vector<uint8_t> cut(record_.begin(), record_.begin() + n);
    EXPECT_FALSE(ResumeFrom(cut).ok()) << n;
  }
}

TEST_F(CheckpointFuzzTest, EveryWrongVersionFailsWithTheVersionError) {
  for (int version = 0; version < 256; ++version) {
    if (version == record_[0]) continue;
    std::vector<uint8_t> record = record_;
    record[0] = static_cast<uint8_t>(version);
    const Status status = ResumeFrom(record);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("incompatible"), std::string::npos)
        << status.ToString();
  }
}

/// This audit's finished checkpoint as the v6 format wrote it, captured
/// from a v6 build: the v7 fingerprint plus the minimum sample (varint 30
/// at offset 32), the c1 and c2 costs (doubles 45 and 25 at offset 95) and
/// the design-effect clamp (doubles 0.25 and 20 at offset 112, after the
/// panel size).
const std::vector<uint8_t> kVersion6Record = {
    0x06, 0x1d, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x54,
    0x57, 0x43, 0x53, 0x06, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f,
    0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f, 0x1e, 0xc0, 0x84, 0x3d,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x55,
    0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f, 0x55, 0x55, 0x55, 0x55, 0x55,
    0x55, 0xd5, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x80, 0x46, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x39, 0x40, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x34, 0x40,
};

/// Expects `status` to be the snapshot-version refusal of `version`, not a
/// fingerprint mismatch.
void ExpectVersionError(const Status& status, int version) {
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("snapshot version " +
                                  std::to_string(version) +
                                  " is incompatible"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(status.message().find("fingerprint"), std::string::npos)
      << status.ToString();
}

TEST_F(CheckpointFuzzTest, AVersion6RecordFailsWithTheVersionError) {
  // Less those five fields and under the live version, it is this build's
  // record of the same audit: only the version gate can refuse it.
  std::vector<uint8_t> live = kVersion6Record;
  live.erase(live.begin() + 112, live.end());
  live.erase(live.begin() + 95, live.begin() + 111);
  live.erase(live.begin() + 32);
  live[0] = record_[0];
  EXPECT_EQ(live, record_);

  ExpectVersionError(ResumeFrom(kVersion6Record), 6);
}

TEST_F(CheckpointFuzzTest, AVersion5RecordFailsWithTheVersionError) {
  // This audit's finished checkpoint as the v5 format wrote it: the v6
  // record plus the HPD solver byte, the ET warm-start bool and the
  // external-start bool (0x00 0x01 0x00 at offset 95, after the priors).
  const std::vector<uint8_t> v5 = {
      0x05, 0x1d, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x54,
      0x57, 0x43, 0x53, 0x06, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f,
      0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xa9, 0x3f, 0x1e, 0xc0, 0x84, 0x3d,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x55,
      0x55, 0x55, 0x55, 0x55, 0x55, 0xd5, 0x3f, 0x55, 0x55, 0x55, 0x55, 0x55,
      0x55, 0xd5, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x46, 0x40, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x39, 0x40, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x34, 0x40,
  };
  std::vector<uint8_t> v6 = v5;
  v6.erase(v6.begin() + 95, v6.begin() + 98);
  v6[0] = kVersion6Record[0];
  EXPECT_EQ(v6, kVersion6Record);

  ExpectVersionError(ResumeFrom(v5), 5);
}

TEST_F(CheckpointFuzzTest, WrongFingerprintLengthsFail) {
  const std::vector<uint8_t> intact = WithSteps(steps_);
  for (size_t extra = 1; extra <= 16; ++extra) {
    std::vector<uint8_t> longer = intact;
    longer.insert(longer.end(), extra, 0);
    EXPECT_FALSE(ResumeFrom(longer).ok()) << extra;
    std::vector<uint8_t> padded = intact;
    padded.insert(padded.begin() + 1 + static_cast<ptrdiff_t>(extra), 0x41);
    EXPECT_FALSE(ResumeFrom(padded).ok()) << extra;
  }
  // Dropping any single fingerprint byte.
  for (size_t at = fingerprint_at_; at < intact.size(); ++at) {
    std::vector<uint8_t> shorter = intact;
    shorter.erase(shorter.begin() + static_cast<ptrdiff_t>(at));
    EXPECT_FALSE(ResumeFrom(shorter).ok()) << at;
  }
}

TEST_F(CheckpointFuzzTest, CountsPastTheEndFailOnceTheAuditIsDone) {
  for (const uint64_t steps :
       {steps_ + 1, 2 * steps_, uint64_t{1} << 32, uint64_t{1} << 63,
        std::numeric_limits<uint64_t>::max()}) {
    const Status status = ResumeFrom(WithSteps(steps));
    ASSERT_FALSE(status.ok()) << steps;
    EXPECT_NE(status.message().find("audit ends after " +
                                    std::to_string(steps_)),
              std::string::npos)
        << status.ToString();
  }
  // A varint longer than ten bytes in the count's place.
  std::vector<uint8_t> overlong = {record_[0]};
  overlong.insert(overlong.end(), 11, 0xff);
  EXPECT_FALSE(ResumeFrom(overlong).ok());
}

TEST_F(CheckpointFuzzTest, SeededMutantsFailCleanlyOrStayInsideTheAudit) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<uint8_t> mutant = record_;
    switch (trial % 3) {
      case 0: {  // One to three bit flips anywhere.
        const int flips = 1 + static_cast<int>(rng.UniformInt(3));
        for (int f = 0; f < flips; ++f) {
          mutant[rng.UniformInt(mutant.size())] ^=
              static_cast<uint8_t>(1u << rng.UniformInt(8));
        }
        break;
      }
      case 1: {  // A random byte rewritten, then a random truncation.
        mutant[rng.UniformInt(mutant.size())] =
            static_cast<uint8_t>(rng.UniformInt(256));
        mutant.resize(1 + rng.UniformInt(mutant.size()));
        break;
      }
      default: {  // Garbage of a random length.
        mutant.resize(rng.UniformInt(2 * record_.size()));
        for (uint8_t& b : mutant) b = static_cast<uint8_t>(rng.UniformInt(256));
        break;
      }
    }
    if (ResumeFrom(mutant).ok()) {
      // Only a rewritten step count inside the audit can be accepted: the
      // version and the fingerprint must have come through intact.
      const size_t at = FingerprintAt(mutant);
      ASSERT_LE(at, mutant.size()) << trial;
      EXPECT_EQ(mutant[0], record_[0]) << trial;
      EXPECT_TRUE(std::equal(mutant.begin() + static_cast<ptrdiff_t>(at),
                             mutant.end(),
                             record_.begin() +
                                 static_cast<ptrdiff_t>(fingerprint_at_),
                             record_.end()))
          << trial;
    }
  }
}

}  // namespace
}  // namespace kgacc
