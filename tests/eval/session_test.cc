#include "kgacc/eval/session.h"

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "kgacc/kg/profiles.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/store/checkpoint.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKg MakeKg(double accuracy, uint64_t clusters = 2000,
                   uint64_t seed = 77) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = clusters;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = accuracy;
  cfg.seed = seed;
  return *SyntheticKg::Create(cfg);
}

void ExpectSameResult(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_EQ(a.annotated_triples, b.annotated_triples);
  EXPECT_EQ(a.distinct_triples, b.distinct_triples);
  EXPECT_EQ(a.distinct_entities, b.distinct_entities);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.winning_prior, b.winning_prior);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_DOUBLE_EQ(a.mu, b.mu);
  EXPECT_DOUBLE_EQ(a.interval.lower, b.interval.lower);
  EXPECT_DOUBLE_EQ(a.interval.upper, b.interval.upper);
  EXPECT_DOUBLE_EQ(a.cost_seconds, b.cost_seconds);
  EXPECT_DOUBLE_EQ(a.cost_hours, b.cost_hours);
  EXPECT_DOUBLE_EQ(a.deff, b.deff);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].n, b.trace[i].n);
    EXPECT_DOUBLE_EQ(a.trace[i].moe, b.trace[i].moe);
    EXPECT_DOUBLE_EQ(a.trace[i].mu, b.trace[i].mu);
  }
}

TEST(EvaluationSessionTest, RunMatchesRunEvaluationBitForBit) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  for (const IntervalMethod method :
       {IntervalMethod::kWald, IntervalMethod::kWilson,
        IntervalMethod::kClopperPearson, IntervalMethod::kAhpd}) {
    EvaluationConfig config;
    config.method = method;
    config.record_trace = true;

    SrsSampler loop_sampler(kg, SrsConfig{});
    const auto loop = *RunEvaluation(loop_sampler, annotator, config, 42);

    SrsSampler session_sampler(kg, SrsConfig{});
    EvaluationSession session(session_sampler, annotator, config, 42);
    const auto stepped = *session.Run();
    SCOPED_TRACE(IntervalMethodName(method));
    ExpectSameResult(loop, stepped);
  }
}

TEST(EvaluationSessionTest, EquivalenceAcrossSamplingDesigns) {
  const auto kg = MakeKg(0.9);
  OracleAnnotator annotator;
  EvaluationConfig config;

  {
    TwcsSampler a(kg, TwcsConfig{});
    TwcsSampler b(kg, TwcsConfig{});
    EvaluationSession session(b, annotator, config, 11);
    ExpectSameResult(*RunEvaluation(a, annotator, config, 11),
                     *session.Run());
  }
  {
    StratifiedSampler a(kg, StratifiedConfig{});
    StratifiedSampler b(kg, StratifiedConfig{});
    EvaluationSession session(b, annotator, config, 12);
    ExpectSameResult(*RunEvaluation(a, annotator, config, 12),
                     *session.Run());
  }
  {
    SystematicSampler a(kg, SystematicConfig{});
    SystematicSampler b(kg, SystematicConfig{});
    EvaluationSession session(b, annotator, config, 13);
    ExpectSameResult(*RunEvaluation(a, annotator, config, 13),
                     *session.Run());
  }
}

TEST(EvaluationSessionTest, RcsDesignRunsTheRatioEstimatorEndToEnd) {
  const auto kg = MakeKg(0.9);
  OracleAnnotator annotator;
  EvaluationConfig config;
  RcsSampler a(kg, ClusterConfig{});
  RcsSampler b(kg, ClusterConfig{});
  EvaluationSession session(b, annotator, config, 14);
  ExpectSameResult(*RunEvaluation(a, annotator, config, 14), *session.Run());
}

/// Bit patterns of a step's outcome: resumed and uninterrupted sessions
/// must agree on every bit, not within a few ulps.
void ExpectSameStepBits(const StepOutcome& want, const StepOutcome& got) {
  EXPECT_EQ(got.done, want.done);
  EXPECT_EQ(got.annotated_triples, want.annotated_triples);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.mu), std::bit_cast<uint64_t>(want.mu));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.moe),
            std::bit_cast<uint64_t>(want.moe));
}

TEST(EvaluationSessionTest, LeanSessionsResumeByteIdentically) {
  // A session keeps running totals, distinct sets and the HPD warm carry,
  // never a unit history. A session checkpointed mid-run and resumed by
  // replay in a fresh session must read the replayed steps' labels back
  // from the store, then take every later step on the same bits as the
  // uninterrupted run. Each later aHPD step seeds its Newton solves from
  // the carry of the step before (WarmCarryShapesLaterSteps), so the
  // bitwise-equal steps show the replay rebuilt the carry as well as the
  // totals.
  const auto kg = MakeKg(0.85);
  OracleAnnotator oracle;
  EvaluationConfig lean;
  lean.record_trace = true;
  for (const bool twcs : {false, true}) {
    SCOPED_TRACE(twcs ? "TWCS" : "SRS");
    const std::string path = testing::TempDir() + "/kgacc_session_lean_" +
                             (twcs ? "twcs_" : "srs_") +
                             std::to_string(::getpid());
    std::remove(path.c_str());
    SrsSampler srs_a(kg, SrsConfig{}), srs_b(kg, SrsConfig{}),
        srs_c(kg, SrsConfig{});
    TwcsSampler twcs_a(kg, TwcsConfig{}), twcs_b(kg, TwcsConfig{}),
        twcs_c(kg, TwcsConfig{});
    Sampler& a = twcs ? static_cast<Sampler&>(twcs_a) : srs_a;
    Sampler& b = twcs ? static_cast<Sampler&>(twcs_b) : srs_b;
    Sampler& c = twcs ? static_cast<Sampler&>(twcs_c) : srs_c;

    EvaluationSession uninterrupted(a, oracle, lean, 33);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(uninterrupted.Step().ok());

    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    uint64_t triples_at_checkpoint = 0;
    {
      StoredAnnotator annotator(&oracle, store->get(), 33);
      EvaluationSession first_half(b, annotator, lean, 33);
      for (int i = 0; i < 3 && !first_half.done(); ++i) {
        ASSERT_TRUE(first_half.Step().ok());
      }
      ASSERT_FALSE(first_half.done());
      ASSERT_TRUE(
          CheckpointManager(store->get(), 33).Checkpoint(first_half).ok());
      triples_at_checkpoint = first_half.accumulator().num_triples();
    }

    StoredAnnotator annotator(&oracle, store->get(), 33);
    EvaluationSession resumed(c, annotator, lean, 33);
    ASSERT_TRUE(CheckpointManager(store->get(), 33).Resume(&resumed).ok());
    EXPECT_EQ(resumed.iterations(), 3);
    EXPECT_EQ(resumed.accumulator().num_triples(), triples_at_checkpoint);
    EXPECT_EQ(annotator.oracle_calls(), 0u);

    int later_steps = 0;
    while (!uninterrupted.done()) {
      const auto want = uninterrupted.Step();
      const auto got = resumed.Step();
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok());
      ExpectSameStepBits(*want, *got);
      ++later_steps;
    }
    EXPECT_TRUE(resumed.done());
    EXPECT_GT(later_steps, 3);
    const auto want = *uninterrupted.Finish();
    const auto got = *resumed.Finish();
    ExpectSameResult(want, got);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.interval.lower),
              std::bit_cast<uint64_t>(want.interval.lower));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.interval.upper),
              std::bit_cast<uint64_t>(want.interval.upper));

    EXPECT_EQ(resumed.accumulator().num_units(),
              uninterrupted.accumulator().num_units());
    EXPECT_EQ(resumed.accumulator().Estimate()->tau,
              uninterrupted.accumulator().Estimate()->tau);
    EXPECT_EQ(resumed.sample().num_distinct_entities(),
              uninterrupted.sample().num_distinct_entities());
    EXPECT_EQ(resumed.sample().num_distinct_triples(),
              uninterrupted.sample().num_distinct_triples());
    store->reset();
    std::remove(path.c_str());
  }
}

TEST(EvaluationSessionTest, StepByStepMatchesSingleRun) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  EvaluationConfig config;

  SrsSampler loop_sampler(kg, SrsConfig{});
  const auto loop = *RunEvaluation(loop_sampler, annotator, config, 7);

  SrsSampler session_sampler(kg, SrsConfig{});
  EvaluationSession session(session_sampler, annotator, config, 7);
  int steps = 0;
  while (!session.done()) {
    const StepOutcome outcome = *session.Step();
    ++steps;
    EXPECT_EQ(outcome.annotated_triples, session.accumulator().num_triples());
    if (!outcome.done) {
      EXPECT_GT(outcome.moe, config.moe_threshold);
    }
  }
  EXPECT_EQ(steps, loop.iterations);
  ExpectSameResult(loop, *session.Finish());
}

TEST(EvaluationSessionTest, WarmCarryShapesLaterSteps) {
  // Each step builds its interval through one AhpdWarmState the session
  // threads from step to step: every step's margin equals, bit for bit,
  // BuildInterval threaded through a carry of its own over the same
  // estimates, and differs from a cold solve on some step. That is why a
  // resume must rebuild the carry, not only the totals.
  const auto kg = MakeKg(0.9);
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{.batch_size = 40});
  EvaluationConfig config;
  config.method = IntervalMethod::kAhpd;
  config.moe_threshold = 1e-9;  // Never converges inside the test window.
  config.max_triples = 800;
  EvaluationSession session(sampler, annotator, config, 321);
  AhpdWarmState warm;
  int differs_from_cold = 0;
  while (!session.done()) {
    const auto outcome = session.Step();
    ASSERT_TRUE(outcome.ok());
    const auto estimate =
        session.accumulator().Estimate(sampler.stratum_weights());
    ASSERT_TRUE(estimate.ok());
    const auto threaded =
        BuildInterval(config, sampler.estimator(), *estimate, nullptr,
                      nullptr, &warm);
    const auto cold = BuildInterval(config, sampler.estimator(), *estimate);
    ASSERT_TRUE(threaded.ok());
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(outcome->moe),
              std::bit_cast<uint64_t>(threaded->Moe()));
    if (threaded->Moe() != cold->Moe()) ++differs_from_cold;
  }
  EXPECT_EQ(session.iterations(), 20);
  EXPECT_GT(differs_from_cold, 0);
}

TEST(EvaluationSessionTest, StepAfterDoneIsANoOp) {
  const auto kg = MakeKg(0.95);
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationSession session(sampler, annotator, EvaluationConfig{}, 3);
  const auto result = *session.Run();
  const StepOutcome again = *session.Step();
  EXPECT_TRUE(again.done);
  EXPECT_EQ(again.annotated_triples, result.annotated_triples);
  ExpectSameResult(result, *session.Finish());  // Unchanged.
}

TEST(EvaluationSessionTest, SnapshotProgressesMonotonically) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{.batch_size = 10});
  EvaluationSession session(sampler, annotator, EvaluationConfig{}, 5);
  uint64_t last_n = 0;
  while (!session.done()) {
    const StepOutcome outcome = *session.Step();
    EXPECT_EQ(outcome.annotated_triples, last_n + 10);
    last_n = outcome.annotated_triples;
  }
}

TEST(EvaluationSessionTest, MidRunFinishIsASnapshotNotATerminator) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  EvaluationConfig config;

  SrsSampler sampler(kg, SrsConfig{});
  EvaluationSession session(sampler, annotator, config, 9);
  ASSERT_FALSE((*session.Step()).done);
  const auto partial = *session.Finish();
  EXPECT_EQ(partial.annotated_triples, 10u);
  EXPECT_FALSE(partial.converged);

  // The session keeps going and still lands on the RunEvaluation result.
  SrsSampler reference(kg, SrsConfig{});
  ExpectSameResult(*RunEvaluation(reference, annotator, config, 9),
                   *session.Run());
}

TEST(EvaluationSessionTest, FinishBeforeAnyStepFailsCleanly) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationSession session(sampler, annotator, EvaluationConfig{}, 1);
  const auto result = session.Finish();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EvaluationSessionTest, InvalidConfigReportedOnStepAndFinish) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig bad;
  bad.moe_threshold = 0.0;
  EvaluationSession session(sampler, annotator, bad, 1);
  EXPECT_FALSE(session.Step().ok());
  EXPECT_FALSE(session.Finish().ok());
  EXPECT_FALSE(session.Run().ok());
}

TEST(ValidateEvaluationConfigTest, RejectsCapBelowMinSample) {
  EvaluationConfig config;
  config.max_triples = kMinSampleTriples;
  EXPECT_TRUE(ValidateEvaluationConfig(config).ok());
  config.max_triples = kMinSampleTriples - 1;
  const Status status = ValidateEvaluationConfig(config);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  // The guard reaches RunEvaluation too.
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EXPECT_FALSE(RunEvaluation(sampler, annotator, config, 1).ok());
}

TEST(ValidateEvaluationConfigTest, RefusesPriorsHeavierThanTheBound) {
  EvaluationConfig config;
  config.priors.push_back(BetaPrior{"bound", 0.8e9, 0.2e9});
  EXPECT_TRUE(ValidateEvaluationConfig(config).ok());
  config.priors.push_back(BetaPrior{"sister-kg", 0.8e10, 0.2e10});
  const Status status = ValidateEvaluationConfig(config);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("prior 'sister-kg'"), std::string::npos)
      << status.ToString();
}

TEST(ValidateEvaluationConfigTest, RefusesPriorsWithoutFinitePositiveShapes) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  for (const double shape : {-1.0, 0.0, std::nan("")}) {
    for (const bool on_a : {true, false}) {
      EvaluationConfig config;
      config.method = IntervalMethod::kAhpd;
      config.priors.push_back(on_a ? BetaPrior{"bad", shape, 2.0}
                                   : BetaPrior{"bad", 2.0, shape});
      const Status status = ValidateEvaluationConfig(config);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << shape << " " << on_a;
      EXPECT_NE(status.message().find("prior 'bad'"), std::string::npos)
          << status.ToString();
      // The audit refuses to run rather than finishing OK.
      const auto result = RunEvaluation(sampler, annotator, config, 1);
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ValidateEvaluationConfigTest, AcceptsTheDefaults) {
  EXPECT_TRUE(ValidateEvaluationConfig(EvaluationConfig{}).ok());
}

TEST(BuildIntervalTest, ClopperPearsonClampsRoundedTauToN) {
  // A caller-constructed estimate whose mu exceeds 1 (possible for
  // externally computed ratio estimates) used to round to tau > n and
  // break the Clopper-Pearson constructor; the clamp keeps it valid.
  AccuracyEstimate est;
  est.mu = 1.02;
  est.n = 100;
  est.tau = 102;
  est.num_units = 50;
  est.variance = 1e-4;

  EvaluationConfig config;
  config.method = IntervalMethod::kClopperPearson;
  const auto interval = BuildInterval(config, EstimatorKind::kCluster, est);
  ASSERT_TRUE(interval.ok()) << interval.status().ToString();
  EXPECT_LE(interval->upper, 1.0);
  EXPECT_GT(interval->lower, 0.5);
}

}  // namespace
}  // namespace kgacc
