#include "kgacc/eval/evaluator.h"

#include "kgacc/intervals/credible.h"
#include "kgacc/intervals/priors.h"
#include "kgacc/kg/profiles.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"

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

TEST(IntervalMethodNameTest, AllNamesStable) {
  EXPECT_STREQ(IntervalMethodName(IntervalMethod::kWald), "Wald");
  EXPECT_STREQ(IntervalMethodName(IntervalMethod::kWilson), "Wilson");
  EXPECT_STREQ(IntervalMethodName(IntervalMethod::kAgrestiCoull),
               "Agresti-Coull");
  EXPECT_STREQ(IntervalMethodName(IntervalMethod::kClopperPearson),
               "Clopper-Pearson");
  EXPECT_STREQ(IntervalMethodName(IntervalMethod::kEqualTailed), "ET");
  EXPECT_STREQ(IntervalMethodName(IntervalMethod::kHpd), "HPD");
  EXPECT_STREQ(IntervalMethodName(IntervalMethod::kAhpd), "aHPD");
}

TEST(RunEvaluationTest, ConvergesAndMeetsMoeBudget) {
  const auto kg = MakeKg(0.85);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto result = *RunEvaluation(sampler, annotator, config, 1);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.interval.Moe(), config.moe_threshold);
  EXPECT_GE(result.annotated_triples, kMinSampleTriples);
  EXPECT_GT(result.iterations, 0);
  EXPECT_NEAR(result.mu, 0.85, 0.15);
}

TEST(RunEvaluationTest, HeaviestInformativePriorsAreRefused) {
  // Past kMaxPriorWeight the HPD endpoints go wrong (at a + b = 1e100 an
  // SRS audit of this KG ended with its lower endpoint above the upper
  // one), so an audit refuses such a prior up front and names it.
  const auto kg = MakeKg(0.85);
  for (const double weight : {1e10, 1e100, 1e154}) {
    SrsSampler sampler(kg, SrsConfig{});
    OracleAnnotator annotator;
    EvaluationConfig config;
    config.priors.push_back(BetaPrior{"heavy", 0.8 * weight, 0.2 * weight});
    const auto result = RunEvaluation(sampler, annotator, config, 9);
    ASSERT_FALSE(result.ok()) << weight;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("prior 'heavy'"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(RunEvaluationTest, DeterministicForFixedSeed) {
  const auto kg = MakeKg(0.85);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto a = *RunEvaluation(sampler, annotator, config, 42);
  const auto b = *RunEvaluation(sampler, annotator, config, 42);
  EXPECT_EQ(a.annotated_triples, b.annotated_triples);
  EXPECT_DOUBLE_EQ(a.mu, b.mu);
  EXPECT_DOUBLE_EQ(a.interval.lower, b.interval.lower);
  EXPECT_DOUBLE_EQ(a.cost_seconds, b.cost_seconds);
}

TEST(RunEvaluationTest, DifferentSeedsTakeDifferentPaths) {
  const auto kg = MakeKg(0.85);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto a = *RunEvaluation(sampler, annotator, config, 1);
  const auto b = *RunEvaluation(sampler, annotator, config, 2);
  EXPECT_NE(a.mu, b.mu);  // Astronomically unlikely to tie exactly.
}

TEST(RunEvaluationTest, MinSampleFloorIsRespected) {
  // Even a tame population must annotate >= kMinSampleTriples: at a loose
  // epsilon the all-correct first batch already meets the MoE budget, so
  // only the floor keeps the audit going.
  const auto kg = MakeKg(1.0);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.moe_threshold = 0.2;
  const auto result = *RunEvaluation(sampler, annotator, config, 3);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 1);
  EXPECT_GE(result.annotated_triples, kMinSampleTriples);
}

TEST(RunEvaluationTest, WaldZeroWidthHaltsAtMinSample) {
  // Example 1: all-correct population + Wald -> zero-width interval at
  // exactly the minimum sample size.
  const auto kg = MakeKg(1.0);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.method = IntervalMethod::kWald;
  const auto result = *RunEvaluation(sampler, annotator, config, 4);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.annotated_triples, 30u);
  EXPECT_DOUBLE_EQ(result.interval.Width(), 0.0);
}

TEST(RunEvaluationTest, MaxTriplesCapReportsNonConvergence) {
  const auto kg = MakeKg(0.5);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.moe_threshold = 0.001;  // Needs ~ 1M samples; cap fires first.
  config.max_triples = 200;
  const auto result = *RunEvaluation(sampler, annotator, config, 5);
  EXPECT_FALSE(result.converged);
  EXPECT_LE(result.annotated_triples, 200u + 10u);
}

TEST(RunEvaluationTest, TraceRecordsEveryBatch) {
  const auto kg = MakeKg(0.85);
  SrsSampler sampler(kg, SrsConfig{.batch_size = 10});
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.record_trace = true;
  const auto result = *RunEvaluation(sampler, annotator, config, 6);
  ASSERT_EQ(result.trace.size(), static_cast<size_t>(result.iterations));
  // n grows by the batch size; MoE is eventually within budget.
  for (size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_EQ(result.trace[i].n, result.trace[i - 1].n + 10);
  }
  EXPECT_LE(result.trace.back().moe, config.moe_threshold);
}

TEST(RunEvaluationTest, CostAccountsDistinctEntitiesAndTriples) {
  const auto kg = MakeKg(0.85);
  TwcsSampler sampler(kg, TwcsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto result = *RunEvaluation(sampler, annotator, config, 7);
  const double expected = result.distinct_entities * 45.0 +
                          result.distinct_triples * 25.0;
  EXPECT_DOUBLE_EQ(result.cost_seconds, expected);
  EXPECT_DOUBLE_EQ(result.cost_hours, expected / 3600.0);
  // TWCS shares entities across second-stage triples.
  EXPECT_LT(result.distinct_entities, result.distinct_triples);
}

TEST(RunEvaluationTest, TwcsReportsDesignEffect) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 2000;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.85;
  cfg.label_model = LabelModel::kBetaMixture;
  cfg.intra_cluster_rho = 0.3;
  cfg.seed = 11;
  const auto kg = *SyntheticKg::Create(cfg);
  TwcsSampler sampler(kg, TwcsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.method = IntervalMethod::kWilson;
  const auto result = *RunEvaluation(sampler, annotator, config, 8);
  EXPECT_NE(result.deff, 1.0);  // Kish adjustment was engaged.
}

TEST(RunEvaluationTest, AllMethodsConvergeOnSkewedPopulation) {
  const auto kg = MakeKg(0.9);
  OracleAnnotator annotator;
  for (const IntervalMethod method :
       {IntervalMethod::kWald, IntervalMethod::kWilson,
        IntervalMethod::kAgrestiCoull, IntervalMethod::kClopperPearson,
        IntervalMethod::kEqualTailed, IntervalMethod::kHpd,
        IntervalMethod::kAhpd}) {
    SrsSampler sampler(kg, SrsConfig{});
    EvaluationConfig config;
    config.method = method;
    const auto result = RunEvaluation(sampler, annotator, config, 9);
    ASSERT_TRUE(result.ok()) << IntervalMethodName(method);
    EXPECT_TRUE(result->converged) << IntervalMethodName(method);
    EXPECT_LE(result->interval.Moe(), 0.05) << IntervalMethodName(method);
  }
}

TEST(RunEvaluationTest, AhpdReportsWinningPrior) {
  const auto kg = MakeKg(0.99);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;  // aHPD with the Kerman/Jeffreys/Uniform trio.
  const auto result = *RunEvaluation(sampler, annotator, config, 10);
  EXPECT_LT(result.winning_prior, config.priors.size());
}

TEST(RunEvaluationTest, PredictedCarryPinsNewtonIterationsPerSolve) {
  // Each step seeds every prior's Newton solve at the carried interval
  // moved onto the new posterior: one batch later that start is close
  // enough for ~3 iterations. Seeding at the unmoved interval took 4.50 on
  // this audit (48 steps, 141 Newton solves); epsilon = 0.03 keeps the
  // audit long enough that the three cold first solves do not dominate.
  const auto kg = *::kgacc::MakeKg(DbpediaProfile(), 42);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;  // aHPD with the Kerman/Jeffreys/Uniform trio.
  config.moe_threshold = 0.03;
  ResetThreadHpdStats();
  ASSERT_TRUE(RunEvaluation(sampler, annotator, config, 1).ok());
  const HpdSolveStats stats = ThreadHpdStatsSnapshot();
  ResetThreadHpdStats();
  ASSERT_GT(stats.newton.solves, 0u);
  const double per_solve = static_cast<double>(stats.newton.iterations) /
                           static_cast<double>(stats.newton.solves);
  EXPECT_LE(per_solve, 3.5) << stats.newton.solves << " Newton solves";
}

TEST(RunEvaluationTest, RejectsInvalidConfig) {
  const auto kg = MakeKg(0.85);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig bad_moe;
  bad_moe.moe_threshold = 0.0;
  EXPECT_FALSE(RunEvaluation(sampler, annotator, bad_moe, 1).ok());
  EvaluationConfig bad_alpha;
  bad_alpha.alpha = 1.5;
  EXPECT_FALSE(RunEvaluation(sampler, annotator, bad_alpha, 1).ok());
}

TEST(RunEvaluationTest, NoisyAnnotationBiasesEstimateAsExpected) {
  // A 10%-error annotator on a mu=0.9 population observes accuracy
  // 0.9*0.9 + 0.1*0.1 = 0.82.
  const auto kg = MakeKg(0.9, 5000);
  SrsSampler sampler(kg, SrsConfig{});
  NoisyAnnotator annotator(0.1);
  EvaluationConfig config;
  config.moe_threshold = 0.02;  // Larger sample for a tight check.
  const auto result = *RunEvaluation(sampler, annotator, config, 11);
  EXPECT_NEAR(result.mu, 0.82, 0.05);
}

TEST(RunEvaluationTest, BudgetExhaustionStopsEarly) {
  const auto kg = MakeKg(0.5);
  SrsSampler sampler(kg, SrsConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  config.moe_threshold = 0.001;        // Unreachable quickly...
  config.max_cost_seconds = 3600.0;    // ...within a one-hour budget.
  const auto result = *RunEvaluation(sampler, annotator, config, 21);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.stop_reason, StopReason::kBudgetExhausted);
  // The budget allows ~ 3600 / 70 = 51 fresh triples plus one batch of
  // overshoot.
  EXPECT_LT(result.cost_seconds, 3600.0 + 11 * 70.0);
}

TEST(RunEvaluationTest, StopReasonsAreConsistent) {
  const auto kg = MakeKg(0.9);
  OracleAnnotator annotator;

  SrsSampler converge(kg, SrsConfig{});
  EvaluationConfig ok_config;
  const auto converged = *RunEvaluation(converge, annotator, ok_config, 22);
  EXPECT_EQ(converged.stop_reason, StopReason::kConverged);
  EXPECT_TRUE(converged.converged);

  SrsSampler capped(kg, SrsConfig{});
  EvaluationConfig cap_config;
  cap_config.moe_threshold = 1e-5;
  cap_config.max_triples = 100;
  const auto cap = *RunEvaluation(capped, annotator, cap_config, 22);
  EXPECT_EQ(cap.stop_reason, StopReason::kTripleCapReached);

  // Exhaust a tiny population under WOR with an unreachable MoE.
  SyntheticKgConfig tiny_cfg;
  tiny_cfg.num_clusters = 20;
  tiny_cfg.mean_cluster_size = 2.0;
  tiny_cfg.accuracy = 0.5;
  tiny_cfg.seed = 3;
  const auto tiny = *SyntheticKg::Create(tiny_cfg);
  SrsSampler wor(tiny, SrsConfig{.batch_size = 10,
                                 .without_replacement = true});
  EvaluationConfig wor_config;
  wor_config.moe_threshold = 1e-6;
  const auto exhausted = *RunEvaluation(wor, annotator, wor_config, 23);
  EXPECT_EQ(exhausted.stop_reason, StopReason::kPopulationExhausted);
  EXPECT_EQ(exhausted.annotated_triples, tiny.num_triples());
}

TEST(StopReasonNameTest, AllNamesStable) {
  EXPECT_STREQ(StopReasonName(StopReason::kConverged), "converged");
  EXPECT_STREQ(StopReasonName(StopReason::kTripleCapReached), "triple-cap");
  EXPECT_STREQ(StopReasonName(StopReason::kBudgetExhausted),
               "budget-exhausted");
  EXPECT_STREQ(StopReasonName(StopReason::kPopulationExhausted),
               "population-exhausted");
}

TEST(RunEvaluationTest, FpcAcceleratesConvergenceOnTinyKgs) {
  // A 120-triple population at mu = 0.5: without FPC the audit needs ~380
  // triples (impossible WOR), with FPC the interval collapses as the
  // census nears and the run converges.
  SyntheticKgConfig cfg;
  cfg.num_clusters = 60;
  cfg.mean_cluster_size = 2.0;
  cfg.accuracy = 0.5;
  cfg.label_model = LabelModel::kBalanced;
  cfg.seed = 5;
  const auto kg = *SyntheticKg::Create(cfg);
  OracleAnnotator annotator;

  SrsSampler without(kg, SrsConfig{.without_replacement = true});
  EvaluationConfig plain;
  const auto uncorrected = *RunEvaluation(without, annotator, plain, 31);
  EXPECT_EQ(uncorrected.stop_reason, StopReason::kPopulationExhausted);
  EXPECT_FALSE(uncorrected.converged);

  SrsSampler with(kg, SrsConfig{.without_replacement = true});
  EvaluationConfig fpc;
  fpc.finite_population_correction = true;
  const auto corrected = *RunEvaluation(with, annotator, fpc, 31);
  EXPECT_TRUE(corrected.converged);
  EXPECT_LE(corrected.interval.Moe(), 0.05);
}

TEST(RunEvaluationTest, StratifiedSamplerRunsEndToEnd) {
  const auto kg = MakeKg(0.85);
  StratifiedSampler sampler(kg, StratifiedConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto result = *RunEvaluation(sampler, annotator, config, 24);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.interval.Moe(), 0.05);
  EXPECT_NEAR(result.mu, 0.85, 0.12);
}

TEST(RunEvaluationTest, SystematicSamplerRunsEndToEnd) {
  const auto kg = MakeKg(0.85);
  SystematicSampler sampler(kg, SystematicConfig{});
  OracleAnnotator annotator;
  EvaluationConfig config;
  const auto result = *RunEvaluation(sampler, annotator, config, 25);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.interval.Moe(), 0.05);
  EXPECT_NEAR(result.mu, 0.85, 0.12);
}

TEST(BuildIntervalTest, MatchesDirectConstructors) {
  AccuracyEstimate est;
  est.mu = 0.8;
  est.n = 100;
  est.tau = 80;
  est.num_units = 100;
  est.variance = 0.8 * 0.2 / 100.0;

  EvaluationConfig config;
  config.method = IntervalMethod::kWilson;
  const auto wilson = *BuildInterval(config, EstimatorKind::kSrs, est);
  const auto direct = *WilsonInterval(0.8, 100, 0.05);
  EXPECT_DOUBLE_EQ(wilson.lower, direct.lower);
  EXPECT_DOUBLE_EQ(wilson.upper, direct.upper);
}

TEST(BuildIntervalTest, EtAndHpdRequirePriors) {
  AccuracyEstimate est;
  est.mu = 0.8;
  est.n = 100;
  est.tau = 80;
  est.num_units = 100;
  EvaluationConfig config;
  config.priors.clear();
  config.method = IntervalMethod::kEqualTailed;
  EXPECT_FALSE(BuildInterval(config, EstimatorKind::kSrs, est).ok());
  config.method = IntervalMethod::kHpd;
  EXPECT_FALSE(BuildInterval(config, EstimatorKind::kSrs, est).ok());
}

}  // namespace
}  // namespace kgacc
