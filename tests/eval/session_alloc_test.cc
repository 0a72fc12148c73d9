// Steady-state allocation accounting for the evaluation hot loop. The flat
// SampleBatch plus the streaming estimator contract promise that once a
// session's buffers have grown to the workload's footprint, Step() performs
// ZERO heap allocations — not "few", none. This test overrides the global
// allocator to count, warms a session past every growth (batch buffers,
// distinct-set saturation on a small population), then demands silence.

#include "kgacc/eval/session.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/util/alloc_counter.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKg SmallKg() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 120;  // ~360 triples: distinct sets saturate quickly.
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.9;
  cfg.seed = 5;
  return *SyntheticKg::Create(cfg);
}

/// A stop rule that never fires inside the test horizon.
EvaluationConfig NeverConvergingConfig() {
  EvaluationConfig config;
  config.method = IntervalMethod::kWald;  // Closed form: no solver state.
  config.moe_threshold = 1e-12;
  config.max_triples = 1u << 30;
  return config;
}

/// Steps until the distinct-triple set stops growing (with-replacement
/// designs re-draw old triples from then on), then a tail of extra steps so
/// amortized growth — FlatSet migration debt, vector doublings — finishes.
void WarmUp(EvaluationSession& session, const KgView& kg) {
  uint64_t plateau = 0;
  while (session.sample().num_distinct_triples() < kg.num_triples() &&
         plateau < 400) {
    ASSERT_TRUE(session.Step().ok());
    ++plateau;
  }
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(session.Step().ok());
  }
  ASSERT_FALSE(session.done());
}

TEST(SessionAllocationTest, SrsSteadyStateStepsAllocateNothing) {
  const auto kg = SmallKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{.batch_size = 50});
  SessionScratch scratch;
  EvaluationSession session(sampler, annotator, NeverConvergingConfig(), 99,
                            &scratch);
  WarmUp(session, kg);

  const uint64_t before = alloc_counter::Current();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session.Step().ok());
  }
  const uint64_t after = alloc_counter::Current();
  EXPECT_EQ(after - before, 0u)
      << "steady-state SRS steps performed heap allocations";
}

TEST(SessionAllocationTest, TwcsSteadyStateStepsAllocateNothing) {
  const auto kg = SmallKg();
  OracleAnnotator annotator;
  TwcsSampler sampler(kg, TwcsConfig{.batch_clusters = 16,
                                     .second_stage_size = 3});
  SessionScratch scratch;
  EvaluationSession session(sampler, annotator, NeverConvergingConfig(), 17,
                            &scratch);
  WarmUp(session, kg);

  const uint64_t before = alloc_counter::Current();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session.Step().ok());
  }
  const uint64_t after = alloc_counter::Current();
  EXPECT_EQ(after - before, 0u)
      << "steady-state TWCS steps performed heap allocations";
}

TEST(SessionAllocationTest, HpdSteadyStateStepsAllocateNothing) {
  // The zero-allocation contract now reaches past kWald into the interval
  // layer: a warm kHpd step runs the 2x2 Newton KKT solver through its
  // templated (non-type-erased) entry point, so the whole
  // draw-annotate-estimate-interval cycle is silent. This is what the
  // SolveNewtonKkt2 callable templating bought.
  const auto kg = SmallKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{.batch_size = 50});
  EvaluationConfig config = NeverConvergingConfig();
  config.method = IntervalMethod::kHpd;
  SessionScratch scratch;
  EvaluationSession session(sampler, annotator, config, 23, &scratch);
  WarmUp(session, kg);

  const uint64_t before = alloc_counter::Current();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session.Step().ok());
  }
  const uint64_t after = alloc_counter::Current();
  EXPECT_EQ(after - before, 0u)
      << "steady-state kHpd steps performed heap allocations";
}

TEST(SessionAllocationTest, AhpdSteadyStateStepsAllocateNothing) {
  // aHPD solves one warm-started HPD per prior each step and keeps only the
  // shortest: the per-prior carry lives in the session's AhpdWarmState,
  // sized once, so a warm step allocates nothing either.
  const auto kg = SmallKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{.batch_size = 50});
  EvaluationConfig config = NeverConvergingConfig();
  config.method = IntervalMethod::kAhpd;
  SessionScratch scratch;
  EvaluationSession session(sampler, annotator, config, 29, &scratch);
  WarmUp(session, kg);

  const uint64_t before = alloc_counter::Current();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session.Step().ok());
  }
  const uint64_t after = alloc_counter::Current();
  EXPECT_EQ(after - before, 0u)
      << "steady-state kAhpd steps performed heap allocations";
}

TEST(SessionAllocationTest, ScratchReuseAcrossSessionsAllocatesNothing) {
  // A worker context running many jobs on one scratch: after the first few
  // sessions every buffer is warm, so constructing and running a whole new
  // session on the same population must stay allocation-free (sampler reuse
  // included — this is the EvaluationService per-context protocol).
  const auto kg = SmallKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{.batch_size = 50});
  EvaluationConfig config = NeverConvergingConfig();
  config.max_triples = 2000;  // Small bounded audits.
  config.priors.clear();  // Unused by Wald; keeps the config copy alloc-free.

  SessionScratch scratch;
  for (uint64_t job = 0; job < 3; ++job) {  // Warm the scratch.
    EvaluationSession session(sampler, annotator, config, 1000 + job,
                              &scratch);
    ASSERT_TRUE(session.Run().ok());
  }
  const uint64_t before = alloc_counter::Current();
  for (uint64_t job = 0; job < 5; ++job) {
    EvaluationSession session(sampler, annotator, config, 2000 + job,
                              &scratch);
    ASSERT_TRUE(session.Run().ok());
  }
  const uint64_t after = alloc_counter::Current();
  EXPECT_EQ(after - before, 0u)
      << "warm-scratch session construction or Run() allocated";
}

}  // namespace
}  // namespace kgacc
