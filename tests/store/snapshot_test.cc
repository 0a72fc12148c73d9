// Checkpoint records and replay resume. A checkpoint is the session's
// identity fingerprint plus its completed step count; resume re-executes
// that many steps on a fresh session whose StoredAnnotator serves every
// label from the store. Every design under every interval family must
// resume to the bit-identical result of the uninterrupted run, at zero
// oracle calls for the replayed prefix, and a record from another
// configuration must be refused before any step runs (other format versions
// are covered by checkpoint_fuzz_test).

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kgacc/eval/report.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/store/checkpoint.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/kgacc_snapshot_test_" + name + "_" +
         std::to_string(::getpid());
}

SyntheticKg TestKg() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 400;
  cfg.mean_cluster_size = 4.0;
  cfg.accuracy = 0.85;
  cfg.seed = 21;
  return *SyntheticKg::Create(cfg);
}

using SamplerFactory = std::function<std::unique_ptr<Sampler>(const KgView&)>;

struct Design {
  const char* name;
  SamplerFactory make;
};

std::vector<Design> AllDesigns() {
  return {
      {"srs",
       [](const KgView& kg) {
         return std::make_unique<SrsSampler>(kg, SrsConfig{});
       }},
      {"ssrs",
       [](const KgView& kg) {
         return std::make_unique<StratifiedSampler>(kg, StratifiedConfig{});
       }},
      {"sys",
       [](const KgView& kg) {
         return std::make_unique<SystematicSampler>(kg, SystematicConfig{});
       }},
      {"twcs",
       [](const KgView& kg) {
         return std::make_unique<TwcsSampler>(kg, TwcsConfig{});
       }},
      {"wcs",
       [](const KgView& kg) {
         return std::make_unique<WcsSampler>(kg, ClusterConfig{});
       }},
      {"rcs",
       [](const KgView& kg) {
         return std::make_unique<RcsSampler>(kg, ClusterConfig{});
       }},
  };
}

/// Every field bit for bit, the trace included, plus the rendered report.
void ExpectBitIdentical(const EvaluationResult& a, const EvaluationResult& b,
                        const EvaluationConfig& config) {
  EXPECT_EQ(a.mu, b.mu);
  EXPECT_EQ(a.interval.lower, b.interval.lower);
  EXPECT_EQ(a.interval.upper, b.interval.upper);
  EXPECT_EQ(a.annotated_triples, b.annotated_triples);
  EXPECT_EQ(a.distinct_triples, b.distinct_triples);
  EXPECT_EQ(a.distinct_entities, b.distinct_entities);
  EXPECT_EQ(a.cost_seconds, b.cost_seconds);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.winning_prior, b.winning_prior);
  EXPECT_EQ(a.deff, b.deff);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].n, b.trace[i].n);
    EXPECT_EQ(a.trace[i].moe, b.trace[i].moe);
    EXPECT_EQ(a.trace[i].mu, b.trace[i].mu);
  }
  ReportContext context;
  context.dataset_name = "snapshot-test";
  EXPECT_EQ(RenderJsonReport(context, config, a),
            RenderJsonReport(context, config, b));
}

/// Runs the audit uninterrupted over a store of its own, then again with a
/// crash between a step and its checkpoint, then resumes in fresh objects
/// and finishes. (The reference is store-backed too: a stochastic
/// annotator judges a re-drawn triple afresh, a store answers it with the
/// first label.)
void CheckReplayResume(const Design& design, IntervalMethod method,
                       uint64_t every, uint64_t seed, Annotator& inner) {
  const auto kg = TestKg();
  EvaluationConfig config;
  config.method = method;
  config.moe_threshold = 0.02;  // Long enough to interrupt at every 3.
  config.record_trace = true;
  const std::string path = TempPath(std::string(design.name) + "_" +
                                    std::to_string(seed));
  const std::string reference_path = path + "_reference";
  std::remove(path.c_str());
  std::remove(reference_path.c_str());

  EvaluationResult reference;
  {
    auto store = AnnotationStore::Open(reference_path);
    ASSERT_TRUE(store.ok());
    StoredAnnotator annotator(&inner, store->get(), seed);
    auto sampler = design.make(kg);
    EvaluationSession session(*sampler, annotator, config, seed);
    auto result = session.Run();
    ASSERT_TRUE(result.ok());
    reference = *std::move(result);
  }
  std::remove(reference_path.c_str());
  // The crash lands after step `crash_after` ran and appended its labels,
  // before that step's checkpoint; the last checkpoint holds `resumed_at`.
  const int crash_after = reference.iterations - 1;
  const int resumed_at =
      static_cast<int>((crash_after - 1) / every * every);
  ASSERT_GE(resumed_at, 1) << "test needs a checkpoint before the crash";
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    StoredAnnotator annotator(&inner, store->get(), seed);
    auto sampler = design.make(kg);
    EvaluationSession session(*sampler, annotator, config, seed);
    CheckpointManager manager(store->get(), seed,
                              CheckpointOptions{.every_steps = every});
    for (int i = 1; i <= crash_after; ++i) {
      ASSERT_TRUE(session.Step().ok());
      if (i < crash_after) {
        ASSERT_TRUE(manager.OnStep(session).ok());
      }
    }
    ASSERT_FALSE(session.done());
    ASSERT_TRUE(annotator.status().ok());
  }

  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  auto sampler = design.make(kg);
  DurableAudit audit(*sampler, &inner, store->get(), seed, config, seed,
                     DurableAudit::Options{.checkpoint_every = every});
  ASSERT_TRUE(audit.Resume().ok());
  EXPECT_EQ(audit.session().iterations(), resumed_at);
  EXPECT_EQ(audit.annotator().oracle_calls(), 0u);
  EXPECT_GT(audit.replayed_hits(), 0u);
  // The steps lost between the checkpoint and the crash also read back.
  while (audit.session().iterations() < crash_after) {
    ASSERT_TRUE(audit.Step().ok());
  }
  EXPECT_EQ(audit.annotator().oracle_calls(), 0u);
  auto result = audit.Run();
  ASSERT_TRUE(result.ok());
  ExpectBitIdentical(reference, *result, config);
  std::remove(path.c_str());
}

TEST(SnapshotTest, EveryDesignAndMethodResumesBitIdenticallyByReplay) {
  const IntervalMethod methods[] = {
      IntervalMethod::kAhpd, IntervalMethod::kHpd, IntervalMethod::kWilson,
      IntervalMethod::kClopperPearson};
  OracleAnnotator oracle;
  uint64_t seed = 100;
  for (const Design& design : AllDesigns()) {
    for (const IntervalMethod method : methods) {
      for (const uint64_t every : {uint64_t{1}, uint64_t{3}}) {
        SCOPED_TRACE(std::string(design.name) + " " +
                     IntervalMethodName(method) + " every " +
                     std::to_string(every));
        CheckReplayResume(design, method, every, ++seed, oracle);
      }
    }
  }
}

TEST(SnapshotTest, StochasticAnnotatorsResumeBitIdenticallyByReplay) {
  // Replayed labels come from the store, and every hit burns the draws the
  // annotator would have made, so a noisy or majority-vote audit replays
  // the random path of the run that wrote its labels.
  NoisyAnnotator noisy(0.1);
  MajorityVoteAnnotator vote(3, 0.1);
  for (const Design& design : AllDesigns()) {
    SCOPED_TRACE(design.name);
    CheckReplayResume(design, IntervalMethod::kAhpd, 3, 200, noisy);
    CheckReplayResume(design, IntervalMethod::kAhpd, 1, 201, vote);
  }
}

/// One store-backed step and a checkpoint, for the refusal cases below.
struct CheckpointedAudit {
  std::string path;
  std::unique_ptr<AnnotationStore> store;
  OracleAnnotator oracle;

  explicit CheckpointedAudit(const char* name) : path(TempPath(name)) {
    std::remove(path.c_str());
    auto opened = AnnotationStore::Open(path);
    EXPECT_TRUE(opened.ok());
    store = std::move(opened).value();
  }
  ~CheckpointedAudit() {
    store.reset();
    std::remove(path.c_str());
  }

  void Write(const KgView& kg, const EvaluationConfig& config) {
    StoredAnnotator annotator(&oracle, store.get(), 1);
    SrsSampler sampler(kg, SrsConfig{});
    EvaluationSession session(sampler, annotator, config, 42);
    ASSERT_TRUE(session.Step().ok());
    ASSERT_TRUE(CheckpointManager(store.get(), 1).Checkpoint(session).ok());
  }

  /// Resumes a fresh SRS session under `config` and `seed`.
  Status Resume(const KgView& kg, const EvaluationConfig& config,
                uint64_t seed = 42) {
    StoredAnnotator annotator(&oracle, store.get(), 1);
    SrsSampler sampler(kg, SrsConfig{});
    EvaluationSession session(sampler, annotator, config, seed);
    return CheckpointManager(store.get(), 1).Resume(&session);
  }
};

bool IsFingerprintError(const Status& status) {
  return !status.ok() &&
         status.message().find("fingerprint") != std::string::npos;
}

TEST(SnapshotTest, ResumeUnderAnotherPanelSizeIsRefused) {
  // The panel size scales the fact cost c2, which decides when a budgeted
  // audit stops: a checkpoint taken with one judgment per triple must not
  // resume under a three-annotator panel and mix the two costs.
  const auto kg = TestKg();
  CheckpointedAudit audit("cost");
  const EvaluationConfig config;
  audit.Write(kg, config);
  ASSERT_TRUE(audit.Resume(kg, config).ok());
  MajorityVoteAnnotator panel(3, 0.1);
  StoredAnnotator annotator(&panel, audit.store.get(), 1);
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationSession session(sampler, annotator, config, 42);
  const Status status =
      CheckpointManager(audit.store.get(), 1).Resume(&session);
  EXPECT_TRUE(IsFingerprintError(status)) << status.ToString();
}

TEST(SnapshotTest, ResumeRefusesEveryFingerprintMismatch) {
  const auto kg = TestKg();
  CheckpointedAudit audit("fingerprint");
  const EvaluationConfig config;
  audit.Write(kg, config);

  EXPECT_TRUE(IsFingerprintError(audit.Resume(kg, config, 43)));
  std::vector<EvaluationConfig> others(7, config);
  others[0].method = IntervalMethod::kWald;
  others[1].priors[0].a += 1.0;  // Same prior count, other parameters.
  others[2].alpha = 0.1;
  others[3].max_triples = config.max_triples / 2;
  others[4].record_trace = !config.record_trace;
  others[5].max_cost_seconds = 3600.0;
  others[6].moe_threshold = 0.04;
  for (size_t i = 0; i < others.size(); ++i) {
    EXPECT_TRUE(IsFingerprintError(audit.Resume(kg, others[i]))) << i;
  }
  // Another design over the same audit id.
  {
    StoredAnnotator annotator(&audit.oracle, audit.store.get(), 1);
    TwcsSampler twcs(kg, TwcsConfig{});
    EvaluationSession session(twcs, annotator, config, 42);
    EXPECT_TRUE(IsFingerprintError(
        CheckpointManager(audit.store.get(), 1).Resume(&session)));
  }
}

TEST(SnapshotTest, ResumeNeedsAFreshSession) {
  const auto kg = TestKg();
  CheckpointedAudit audit("fresh");
  const EvaluationConfig config;
  audit.Write(kg, config);
  StoredAnnotator annotator(&audit.oracle, audit.store.get(), 1);
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Step().ok());
  const Status status =
      CheckpointManager(audit.store.get(), 1).Resume(&session);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.iterations(), 1);
}

}  // namespace
}  // namespace kgacc
