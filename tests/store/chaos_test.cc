// Chaos testing for the durable-audit stack: randomized (but seeded, hence
// reproducible) failpoint schedules are armed over the WAL and annotation
// store while an audit runs and is abandoned mid-stream; the store is then
// reopened with injection disarmed and the audit resumed in fresh objects.
// The invariants, per ISSUE: every successful resume lands on a report
// byte-identical to the uninjected reference run, no round ever observes a
// torn store (recovery always reopens), and rounds where faults actually
// fired report them through the retry/degradation counters.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "kgacc/eval/report.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/util/failpoint.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const char* name, int round) {
  return testing::TempDir() + "/kgacc_chaos_test_" + name + "_" +
         std::to_string(round) + "_" + std::to_string(::getpid());
}

SyntheticKg TestKg() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 500;
  cfg.mean_cluster_size = 3.5;
  cfg.accuracy = 0.82;
  cfg.seed = 31;
  return *SyntheticKg::Create(cfg);
}

EvaluationConfig TestConfig() {
  EvaluationConfig config;  // aHPD, alpha = eps = 0.05.
  config.record_trace = true;
  return config;
}

/// Near-zero retry delays: chaos rounds exercise logic, not wall clocks.
BackoffPolicy FastBackoff() {
  BackoffPolicy policy;
  policy.initial_delay_ms = 0.0001;
  policy.max_delay_ms = 0.001;
  return policy;
}

/// The injection surface: every site on the durable write path. `wal.sync`
/// is reachable because the chaos store syncs its checkpoint frames.
constexpr const char* kSites[] = {"wal.append", "wal.append.torn", "wal.sync",
                                  "store.append", "store.checkpoint"};

/// Draws a random schedule: each site is independently left unarmed or
/// armed with a random policy. Everything flows from `rng`, so a failing
/// round is reproducible from its round index alone.
std::string RandomSchedule(Rng* rng) {
  std::string spec;
  for (const char* site : kSites) {
    if (rng->Uniform() < 0.5) continue;
    std::string policy;
    switch (rng->UniformInt(3)) {
      case 0:
        policy = "once";
        break;
      case 1:
        policy = "every:" + std::to_string(2 + rng->UniformInt(6));
        break;
      default:
        policy = "prob:0." + std::to_string(1 + rng->UniformInt(3)) +
                 ":seed:" + std::to_string(1 + rng->UniformInt(1 << 20));
        break;
    }
    if (!spec.empty()) spec += ";";
    spec += std::string(site) + "=" + policy;
  }
  return spec;
}

/// Faults fired across all sites during the armed window.
uint64_t TotalFailuresFired() {
  uint64_t fired = 0;
  for (const char* site : kSites) {
    fired += FailpointRegistry::Instance().Stats(site).failures;
  }
  return fired;
}

/// The byte-identical acceptance criterion, literally: bitwise field
/// equality plus rendered-report equality.
void ExpectIdenticalResults(const EvaluationResult& a,
                            const EvaluationResult& b,
                            const EvaluationConfig& config, int round) {
  EXPECT_EQ(a.mu, b.mu) << "round " << round;
  EXPECT_EQ(a.interval.lower, b.interval.lower) << "round " << round;
  EXPECT_EQ(a.interval.upper, b.interval.upper) << "round " << round;
  EXPECT_EQ(a.annotated_triples, b.annotated_triples) << "round " << round;
  EXPECT_EQ(a.distinct_triples, b.distinct_triples) << "round " << round;
  EXPECT_EQ(a.iterations, b.iterations) << "round " << round;
  EXPECT_EQ(a.winning_prior, b.winning_prior) << "round " << round;
  EXPECT_EQ(a.cost_seconds, b.cost_seconds) << "round " << round;
  EXPECT_EQ(a.converged, b.converged) << "round " << round;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << "round " << round;
  ReportContext context;
  context.dataset_name = "chaos-test";
  context.design_name = "chaos";
  EXPECT_EQ(RenderJsonReport(context, config, a),
            RenderJsonReport(context, config, b))
      << "round " << round;
  EXPECT_EQ(RenderTextReport(context, config, a),
            RenderTextReport(context, config, b))
      << "round " << round;
}

TEST(ChaosTest, RandomFailpointSchedulesNeverBreakResumeExactness) {
  const auto kg = TestKg();
  const EvaluationConfig config = TestConfig();
  const uint64_t seed = 7001;

  // Uninjected reference: no store, no failpoints.
  EvaluationResult reference;
  {
    OracleAnnotator oracle;
    SrsSampler sampler(kg, SrsConfig{});
    EvaluationSession session(sampler, oracle, config, seed);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok());
    reference = *result;
    ASSERT_GE(reference.iterations, 3)
        << "chaos needs a multi-step audit to interrupt";
  }

  AnnotationStore::Options store_options;
  store_options.sync_checkpoints = true;  // Makes wal.sync reachable.

  StoredAnnotator::Options stored_options;
  stored_options.backoff = FastBackoff();  // Degrade mode is the default.

  CheckpointOptions manager_options;
  manager_options.backoff = FastBackoff();

  int rounds_with_faults = 0;
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng(0xc4a05 + uint64_t(round));
    const std::string schedule = RandomSchedule(&rng);
    const std::string path = TempPath("resume", round);
    std::remove(path.c_str());

    // Phase 1 — the injected run, abandoned mid-stream without cleanup
    // (the in-process stand-in for a crash). Degrade mode keeps the audit
    // alive through exhausted retries; only the random interruption or the
    // session's own convergence ends it.
    uint64_t faults_fired = 0;
    bool reported_trouble = false;
    {
      ScopedFailpoints armed(schedule);  // Empty schedule arms nothing.
      ASSERT_TRUE(armed.status().ok()) << schedule;
      auto store = AnnotationStore::Open(path, store_options);
      ASSERT_TRUE(store.ok()) << "round " << round << ": " << schedule;
      OracleAnnotator oracle;
      StoredAnnotator annotator(&oracle, store->get(), seed, stored_options);
      SrsSampler sampler(kg, SrsConfig{});
      EvaluationSession session(sampler, annotator, config, seed);
      CheckpointManager manager(store->get(), seed, manager_options);
      const uint64_t stop_after =
          1 + rng.UniformInt(uint64_t(reference.iterations));
      for (uint64_t i = 0; i < stop_after && !session.done(); ++i) {
        ASSERT_TRUE(session.Step().ok())
            << "round " << round << ": " << schedule;
        ASSERT_TRUE(manager.OnStep(session).ok())
            << "round " << round << ": " << schedule;
      }
      // Degrade mode: injected write failures must never surface as a
      // sticky audit-fatal status.
      EXPECT_TRUE(annotator.status().ok())
          << "round " << round << ": " << schedule;
      faults_fired = TotalFailuresFired();
      reported_trouble = annotator.degraded() || manager.degraded() ||
                         annotator.retries() + manager.retries() > 0;
    }

    // Invariant: faults that fired are visible in the robustness counters.
    if (faults_fired > 0) {
      ++rounds_with_faults;
      EXPECT_TRUE(reported_trouble)
          << "round " << round << " fired " << faults_fired
          << " faults silently: " << schedule;
    }

    // Phase 2 — disarmed resume in fresh objects. The store must reopen
    // (no torn store, ever: a torn tail is truncated, not fatal) and the
    // finished audit must match the uninjected reference byte for byte.
    {
      auto store = AnnotationStore::Open(path, store_options);
      ASSERT_TRUE(store.ok())
          << "round " << round << " left a torn store: " << schedule;
      OracleAnnotator oracle;
      SrsSampler sampler(kg, SrsConfig{});
      DurableAudit audit(sampler, &oracle, store->get(), seed, config, seed);
      const auto result = audit.Run();
      ASSERT_TRUE(result.ok()) << "round " << round << ": " << schedule;
      ASSERT_TRUE(audit.annotator().status().ok());
      EXPECT_FALSE(audit.degraded());
      EXPECT_EQ(audit.retries(), 0u);
      ExpectIdenticalResults(reference, *result, config, round);
    }
    std::remove(path.c_str());
  }
  // The schedule space is seeded: across the fixed rounds at least one
  // must actually inject (otherwise the test silently tests nothing).
  EXPECT_GT(rounds_with_faults, 0);
}

TEST(ChaosTest, CompactionCrashMatrixLeavesStoreRecoverable) {
  // Every failable compaction phase, injected one at a time: the store
  // must come back on either the old log (pre-rename failures) or the new
  // one (post-rename), with the identical label set and latest checkpoint
  // — never torn, never half-rewritten. A successful retry then proves the
  // failure left nothing sticky behind.
  const auto kg = TestKg();
  const EvaluationConfig config = TestConfig();
  constexpr const char* kCompactSites[] = {
      "store.compact.write", "store.compact.sync", "store.compact.rename",
      "store.compact.dirsync"};
  int site_index = 0;
  for (const char* site : kCompactSites) {
    SCOPED_TRACE(site);
    const std::string path = TempPath("compact_matrix", site_index++);
    std::remove(path.c_str());

    // Seed: one finished audit plus a re-audit for checkpoint garbage.
    uint64_t labels_before = 0;
    std::vector<uint8_t> checkpoint_before;
    {
      auto store = AnnotationStore::Open(path);
      ASSERT_TRUE(store.ok());
      for (int round = 0; round < 2; ++round) {
        OracleAnnotator oracle;
        SrsSampler sampler(kg, SrsConfig{});
        DurableAudit audit(sampler, &oracle, store->get(), 1, config, 61);
        ASSERT_TRUE(audit.Run().ok());
      }
      labels_before = (*store)->num_labeled();
      ASSERT_GT(labels_before, 0u);
      ASSERT_TRUE((*store)->LatestCheckpoint(1).has_value());
      checkpoint_before = *(*store)->LatestCheckpoint(1);

      // The injected compaction: every phase failure surfaces as a
      // non-OK status, and the store object is then abandoned without
      // cleanup — the in-process stand-in for crashing at that phase.
      ScopedFailpoints armed(std::string(site) + "=once");
      ASSERT_TRUE(armed.status().ok());
      EXPECT_FALSE((*store)->Compact().ok());
      EXPECT_EQ(FailpointRegistry::Instance().Stats(site).failures, 1u);
    }

    // Disarmed reopen: whichever log the failure left installed replays to
    // the identical index.
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok()) << site << " left an unopenable store";
    EXPECT_EQ((*store)->num_labeled(), labels_before);
    ASSERT_TRUE((*store)->LatestCheckpoint(1).has_value());
    EXPECT_EQ(*(*store)->LatestCheckpoint(1), checkpoint_before);
    // Nothing sticky: the next compaction succeeds and changes nothing
    // about the live state.
    ASSERT_TRUE((*store)->Compact().ok());
    EXPECT_EQ((*store)->num_labeled(), labels_before);
    EXPECT_EQ(*(*store)->LatestCheckpoint(1), checkpoint_before);
    EXPECT_EQ((*store)->garbage_ratio(), 0.0);
    std::remove(path.c_str());
  }
}

TEST(ChaosTest, RandomSchedulesWithAutoCompactionKeepResumeExactness) {
  // The full collision: group-commit writes, per-step checkpoints, and
  // garbage-ratio-triggered compactions racing randomized faults on every
  // write-path *and* compaction-path site. Auto-compaction is best-effort
  // (a failed attempt must never fail the append that tripped it), so the
  // invariant is unchanged from the plain chaos loop: the disarmed resume
  // is byte-identical to the uninjected reference.
  const auto kg = TestKg();
  const EvaluationConfig config = TestConfig();
  const uint64_t seed = 7301;

  EvaluationResult reference;
  {
    OracleAnnotator oracle;
    SrsSampler sampler(kg, SrsConfig{});
    EvaluationSession session(sampler, oracle, config, seed);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok());
    reference = *result;
    ASSERT_GE(reference.iterations, 3);
  }

  AnnotationStore::Options store_options;
  store_options.sync_checkpoints = true;
  // Aggressive thresholds so compactions actually fire inside the short
  // armed window of each round.
  store_options.auto_compact_garbage_ratio = 0.25;
  store_options.auto_compact_min_bytes = 1 << 10;

  StoredAnnotator::Options stored_options;
  stored_options.backoff = FastBackoff();
  CheckpointOptions manager_options;
  manager_options.backoff = FastBackoff();

  constexpr const char* kAllSites[] = {
      "wal.append", "wal.append.torn", "wal.sync", "store.append",
      "store.checkpoint", "store.compact.write", "store.compact.sync",
      "store.compact.rename", "store.compact.dirsync"};
  uint64_t compactions_observed = 0;
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    Rng rng(0xc09ac7 + uint64_t(round));
    std::string schedule;
    for (const char* site : kAllSites) {
      if (rng.Uniform() < 0.5) continue;
      if (!schedule.empty()) schedule += ";";
      schedule += std::string(site) + "=every:" +
                  std::to_string(2 + rng.UniformInt(5));
    }
    const std::string path = TempPath("auto_compact", round);
    std::remove(path.c_str());

    // Two abandoned injected attempts back to back: the second replays the
    // first's checkpoints, superseding them — garbage enough to cross the
    // auto-compaction threshold while faults are still armed.
    {
      ScopedFailpoints armed(schedule);
      ASSERT_TRUE(armed.status().ok()) << schedule;
      for (int attempt = 0; attempt < 2; ++attempt) {
        auto store = AnnotationStore::Open(path, store_options);
        ASSERT_TRUE(store.ok()) << "round " << round << ": " << schedule;
        OracleAnnotator oracle;
        StoredAnnotator annotator(&oracle, store->get(), seed,
                                  stored_options);
        SrsSampler sampler(kg, SrsConfig{});
        EvaluationSession session(sampler, annotator, config, seed);
        CheckpointManager manager(store->get(), seed, manager_options);
        if (manager.CanResume()) {
          ASSERT_TRUE(manager.Resume(&session).ok())
              << "round " << round << ": " << schedule;
        }
        const uint64_t stop_after =
            1 + rng.UniformInt(uint64_t(reference.iterations));
        for (uint64_t i = 0; i < stop_after && !session.done(); ++i) {
          ASSERT_TRUE(session.Step().ok())
              << "round " << round << ": " << schedule;
          ASSERT_TRUE(manager.OnStep(session).ok())
              << "round " << round << ": " << schedule;
        }
        EXPECT_TRUE(annotator.status().ok())
            << "round " << round << ": " << schedule;
        compactions_observed += (*store)->compaction_stats().compactions;
      }
    }

    // Disarmed resume in fresh objects: byte-identical finish.
    {
      auto store = AnnotationStore::Open(path, store_options);
      ASSERT_TRUE(store.ok())
          << "round " << round << " left a torn store: " << schedule;
      OracleAnnotator oracle;
      SrsSampler sampler(kg, SrsConfig{});
      DurableAudit audit(sampler, &oracle, store->get(), seed, config, seed);
      const auto result = audit.Run();
      ASSERT_TRUE(result.ok()) << "round " << round << ": " << schedule;
      ExpectIdenticalResults(reference, *result, config, round);
    }
    std::remove(path.c_str());
  }
  // The thresholds are tuned so compaction genuinely participates in the
  // chaos — otherwise this test is the plain schedule test again.
  EXPECT_GT(compactions_observed, 0u);
}

TEST(ChaosTest, FailFastModeSurfacesExhaustedWriteErrors) {
  // The configurable alternative to degradation: a store whose appends
  // keep failing must stick the error in status() and stop the audit
  // before its first checkpoint — `prob:1` and `every:1` both refuse every
  // append.
  const auto kg = TestKg();
  const EvaluationConfig config = TestConfig();
  int round = 0;
  for (const char* spec : {"store.append=prob:1", "store.append=every:1"}) {
    SCOPED_TRACE(spec);
    const std::string path = TempPath("failfast", round++);
    std::remove(path.c_str());
    ScopedFailpoints armed(spec);
    ASSERT_TRUE(armed.status().ok());
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    OracleAnnotator oracle;
    SrsSampler sampler(kg, SrsConfig{});
    DurableAudit audit(
        sampler, &oracle, store->get(), 1, config, 9,
        DurableAudit::Options{.on_store_error = StoreErrorPolicy::kFail});
    // The step itself fails with the append error, ahead of its checkpoint.
    const auto step = audit.Step();
    ASSERT_FALSE(step.ok());
    EXPECT_EQ(step.status().code(), StatusCode::kIoError);
    EXPECT_NE(step.status().message().find("annotation store append failed"),
              std::string::npos);
    EXPECT_EQ(audit.annotator().status().code(), StatusCode::kIoError);
    EXPECT_FALSE(audit.degraded());
    EXPECT_GT(audit.retries(), 0u);
    EXPECT_EQ(audit.checkpoints().checkpoints_written(), 0u);
    EXPECT_FALSE((*store)->LatestCheckpoint(1).has_value());
    // Run stops at the same sticky error.
    const auto result = audit.Run();
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    EXPECT_FALSE((*store)->LatestCheckpoint(1).has_value());
    std::remove(path.c_str());
  }
}

TEST(ChaosTest, DegradedStoreKeepsServingCachedLabels) {
  // Degraded read-only mode end to end: labels stored before the fault
  // keep serving from the index (zero oracle calls), new judgments fall
  // through to the live annotator and are counted as dropped.
  const auto kg = TestKg();
  const EvaluationConfig config = TestConfig();
  const std::string path = TempPath("degraded", 0);
  std::remove(path.c_str());

  // Seed the store with a complete healthy audit.
  uint64_t labels_on_file = 0;
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    OracleAnnotator oracle;
    StoredAnnotator annotator(&oracle, store->get(), 1);
    SrsSampler sampler(kg, SrsConfig{});
    EvaluationSession session(sampler, annotator, config, 21);
    ASSERT_TRUE(session.Run().ok());
    ASSERT_TRUE(annotator.status().ok());
    labels_on_file = (*store)->num_labeled();
    ASSERT_GT(labels_on_file, 0u);
  }

  // Re-audit with a different seed under a permanently failing WAL: the
  // overlap serves from the store, the rest is re-judged live and dropped.
  StoredAnnotator::Options options;
  options.backoff = FastBackoff();
  ScopedFailpoints armed("wal.append=prob:1");
  ASSERT_TRUE(armed.status().ok());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_labeled(), labels_on_file);
  OracleAnnotator oracle;
  StoredAnnotator annotator(&oracle, store->get(), 2, options);
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationSession session(sampler, annotator, config, 22);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(annotator.status().ok());  // Degrade, not fail.
  EXPECT_TRUE(annotator.degraded());
  EXPECT_EQ(annotator.degraded_cause().code(), StatusCode::kIoError);
  EXPECT_GT(annotator.labels_dropped(), 0u);
  EXPECT_GT(annotator.store_hits(), 0u);  // Cached labels kept serving.
  // Nothing new was persisted.
  EXPECT_EQ((*store)->num_labeled(), labels_on_file);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
