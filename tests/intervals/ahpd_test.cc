#include "kgacc/intervals/ahpd.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(AhpdTest, RequiresAtLeastOnePrior) {
  EXPECT_FALSE(AhpdSelect({}, 10, 20, 0.05).ok());
}

TEST(AhpdTest, SinglePriorEqualsPlainHpd) {
  const std::vector<BetaPrior> priors = {UniformPrior()};
  const auto choice = *AhpdSelect(priors, 25, 30, 0.05);
  const auto posterior = *UniformPrior().Posterior(25, 30);
  const auto hpd = *HpdInterval(posterior, 0.05);
  EXPECT_DOUBLE_EQ(choice.interval.lower, hpd.interval.lower);
  EXPECT_DOUBLE_EQ(choice.interval.upper, hpd.interval.upper);
  EXPECT_EQ(choice.prior_index, 0u);
}

TEST(AhpdTest, PicksTheShortestCandidate) {
  const auto priors = DefaultUninformativePriors();
  const auto choice = *AhpdSelect(priors, 28, 30, 0.05);
  ASSERT_EQ(choice.candidates.size(), 3u);
  for (const Interval& candidate : choice.candidates) {
    EXPECT_LE(choice.interval.Width(), candidate.Width() + 1e-12);
  }
  EXPECT_DOUBLE_EQ(choice.interval.Width(),
                   choice.candidates[choice.prior_index].Width());
}

TEST(AhpdTest, KermanWinsInExtremeRegion) {
  // All-correct outcome (tau = n): extreme accuracy region — Kerman's
  // Beta(1/3,1/3) yields the shortest HPD (§4.4 / Fig. 3).
  const auto priors = DefaultUninformativePriors();
  const auto choice = *AhpdSelect(priors, 30, 30, 0.05);
  EXPECT_EQ(priors[choice.prior_index].name, "Kerman");
}

TEST(AhpdTest, UniformWinsInCentralRegion) {
  // Balanced outcome: central region — the Uniform prior is optimal.
  const auto priors = DefaultUninformativePriors();
  const auto choice = *AhpdSelect(priors, 15, 30, 0.05);
  EXPECT_EQ(priors[choice.prior_index].name, "Uniform");
}

TEST(AhpdTest, JeffreysNeverWinsAcrossOutcomeSweep) {
  // §4.4: Jeffreys is a trade-off and is never the most efficient choice.
  const auto priors = DefaultUninformativePriors();
  int jeffreys_wins = 0;
  for (int tau = 0; tau <= 30; ++tau) {
    const auto choice = *AhpdSelect(priors, tau, 30, 0.05);
    if (priors[choice.prior_index].name == "Jeffreys") ++jeffreys_wins;
  }
  EXPECT_EQ(jeffreys_wins, 0);
}

TEST(AhpdTest, LimitingCasesAreHandled) {
  const auto priors = DefaultUninformativePriors();
  const auto all_correct = *AhpdSelect(priors, 30, 30, 0.05);
  EXPECT_EQ(all_correct.shape, BetaShape::kIncreasing);
  EXPECT_DOUBLE_EQ(all_correct.interval.upper, 1.0);

  const auto none_correct = *AhpdSelect(priors, 0, 30, 0.05);
  EXPECT_EQ(none_correct.shape, BetaShape::kDecreasing);
  EXPECT_DOUBLE_EQ(none_correct.interval.lower, 0.0);
}

TEST(AhpdTest, InformativePriorsShrinkTheInterval) {
  // Example 2 regime: a well-placed informative prior beats the trio.
  const std::vector<BetaPrior> informative = {*InformativePrior(0.85, 100.0)};
  const auto inf = *AhpdSelect(informative, 17, 20, 0.05);
  const auto uninf = *AhpdSelect(DefaultUninformativePriors(), 17, 20, 0.05);
  EXPECT_LT(inf.interval.Width(), uninf.interval.Width());
}

TEST(AhpdTest, MixedPriorSetSelectsBestOverall) {
  // aHPD with uninformative + informative priors picks the informative one
  // when the data agree with it.
  std::vector<BetaPrior> priors = DefaultUninformativePriors();
  priors.push_back(*InformativePrior(0.9, 100.0));
  const auto choice = *AhpdSelect(priors, 27, 30, 0.05);
  EXPECT_EQ(choice.prior_index, 3u);
}

TEST(AhpdTest, FractionalEffectiveSamplesWork) {
  const auto choice = AhpdSelect(DefaultUninformativePriors(), 24.6, 31.2,
                                 0.05);
  ASSERT_TRUE(choice.ok());
  EXPECT_GT(choice->interval.Width(), 0.0);
}

TEST(AhpdWarmTest, WarmStartedSelectionTracksColdSelection) {
  // Simulate an iterative audit: tau/n grow batch by batch; the warm state
  // carries each step's solution into the next solve.
  const auto priors = DefaultUninformativePriors();
  AhpdWarmState warm;
  for (int step = 1; step <= 12; ++step) {
    const double n = 10.0 * step;
    const double tau = 0.87 * n;
    const auto cold = *AhpdSelect(priors, tau, n, 0.05);
    const auto warmed = *AhpdSelect(priors, tau, n, 0.05, {}, &warm);
    EXPECT_NEAR(warmed.interval.lower, cold.interval.lower, 5e-7) << step;
    EXPECT_NEAR(warmed.interval.upper, cold.interval.upper, 5e-7) << step;
    EXPECT_EQ(warmed.prior_index, cold.prior_index) << step;
  }
}

TEST(AhpdWarmTest, UnchangedInputsResolveFromTheCarry) {
  // Repeating (tau, n, alpha) runs the solver again, seeded at the carried
  // solution, and lands on the same interval.
  const auto priors = DefaultUninformativePriors();
  AhpdWarmState warm;
  const auto first = *AhpdSelect(priors, 26, 30, 0.05, {}, &warm);
  ASSERT_EQ(warm.priors.size(), priors.size());
  for (const auto& carried : warm.priors) EXPECT_TRUE(carried.has_value());
  ResetThreadHpdStats();
  const auto second = *AhpdSelect(priors, 26, 30, 0.05, {}, &warm);
  EXPECT_EQ(ThreadHpdStatsSnapshot().newton.solves, priors.size());
  EXPECT_NEAR(second.interval.lower, first.interval.lower, 1e-12);
  EXPECT_NEAR(second.interval.upper, first.interval.upper, 1e-12);
  EXPECT_EQ(second.prior_index, first.prior_index);
  ResetThreadHpdStats();
}

TEST(AhpdWarmTest, LimitingCaseClearsTheCarry) {
  // tau = n makes every posterior monotone: the closed-form interval is not
  // a usable Newton start, so each prior's carry is dropped.
  const auto priors = DefaultUninformativePriors();
  AhpdWarmState warm;
  ASSERT_TRUE(AhpdSelect(priors, 20, 30, 0.05, {}, &warm).ok());
  for (const auto& carried : warm.priors) EXPECT_TRUE(carried.has_value());
  ASSERT_TRUE(AhpdSelect(priors, 30, 30, 0.05, {}, &warm).ok());
  for (const auto& carried : warm.priors) EXPECT_FALSE(carried.has_value());
}

TEST(AhpdWarmTest, CarryCrossesLimitingCaseBoundaries) {
  // tau = n (kIncreasing) then an interior outcome: the carried interval
  // touches 1.0 and must still seed a successful unimodal solve.
  const auto priors = DefaultUninformativePriors();
  AhpdWarmState warm;
  const auto extreme = *AhpdSelect(priors, 30, 30, 0.05, {}, &warm);
  EXPECT_DOUBLE_EQ(extreme.interval.upper, 1.0);
  const auto interior = AhpdSelect(priors, 55, 70, 0.05, {}, &warm);
  ASSERT_TRUE(interior.ok());
  const auto cold = *AhpdSelect(priors, 55, 70, 0.05);
  EXPECT_NEAR(interior->interval.lower, cold.interval.lower, 5e-7);
  EXPECT_NEAR(interior->interval.upper, cold.interval.upper, 5e-7);
}

TEST(AhpdWarmTest, PriorSetSizeChangeInvalidatesTheCarry) {
  AhpdWarmState warm;
  auto priors = DefaultUninformativePriors();
  ASSERT_TRUE(AhpdSelect(priors, 20, 30, 0.05, {}, &warm).ok());
  EXPECT_EQ(warm.priors.size(), 3u);
  priors.push_back(*InformativePrior(0.9, 50.0));
  ASSERT_TRUE(AhpdSelect(priors, 22, 33, 0.05, {}, &warm).ok());
  EXPECT_EQ(warm.priors.size(), 4u);
  for (const auto& carried : warm.priors) EXPECT_TRUE(carried.has_value());
}

TEST(AhpdWarmTest, CarryIsUsedUnconditionallyAcrossPosteriorJumps) {
  // The posterior-mean safety gate is gone: a carried interval seeds the
  // solvers even when the new posterior mean has left it (here the
  // accuracy rate jumps 0.9 -> 0.3 between steps), and the warm result
  // still matches the cold one.
  const auto priors = DefaultUninformativePriors();
  AhpdWarmState warm;
  ASSERT_TRUE(AhpdSelect(priors, 90, 100, 0.05, {}, &warm).ok());
  const auto cold = *AhpdSelect(priors, 60, 200, 0.05);
  const auto warmed = *AhpdSelect(priors, 60, 200, 0.05, {}, &warm);
  EXPECT_NEAR(warmed.interval.lower, cold.interval.lower, 5e-7);
  EXPECT_NEAR(warmed.interval.upper, cold.interval.upper, 5e-7);
  EXPECT_EQ(warmed.prior_index, cold.prior_index);
}

TEST(AhpdTest, WidthShrinksMonotonicallyWithData) {
  const auto priors = DefaultUninformativePriors();
  double prev = 1.0;
  for (const double n : {10.0, 30.0, 100.0, 300.0}) {
    const auto choice = *AhpdSelect(priors, 0.9 * n, n, 0.05);
    EXPECT_LT(choice.interval.Width(), prev) << n;
    prev = choice.interval.Width();
  }
}

}  // namespace
}  // namespace kgacc
