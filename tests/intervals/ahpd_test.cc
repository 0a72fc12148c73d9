#include "kgacc/intervals/ahpd.h"

#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "kgacc/util/random.h"

namespace kgacc {
namespace {

/// An audit-like posterior path: the (tau, n) of each successive step.
using Path = std::vector<std::pair<double, double>>;

/// One HPD interval per prior for the posteriors at (tau, n), each solved
/// cold.
std::vector<Interval> ColdIntervals(const std::vector<BetaPrior>& priors,
                                    double tau, double n) {
  std::vector<Interval> intervals;
  for (const BetaPrior& prior : priors) {
    intervals.push_back(
        HpdInterval(*prior.Posterior(tau, n), 0.05)->interval);
  }
  return intervals;
}

/// Walks `path` prior by prior through `HpdIntervalWarm`, one carry per
/// prior as `AhpdSelect` threads them, and checks every prior's interval
/// at every step against a cold solve of the same posterior; then walks it
/// through `AhpdSelect` with one warm state and checks each step's winner
/// against a cold selection. Returns the 1-D fallbacks the warm per-prior
/// walk took.
uint64_t ExpectWarmWalkMatchesCold(const std::vector<BetaPrior>& priors,
                                   const Path& path) {
  std::vector<std::optional<HpdCarry>> carry(priors.size());
  std::vector<std::vector<Interval>> warmed(path.size());
  ResetThreadHpdStats();
  for (size_t s = 0; s < path.size(); ++s) {
    const auto [tau, n] = path[s];
    for (size_t i = 0; i < priors.size(); ++i) {
      warmed[s].push_back(
          HpdIntervalWarm(*priors[i].Posterior(tau, n), 0.05, &carry[i])
              ->interval);
    }
  }
  const uint64_t fallbacks = ThreadHpdStatsSnapshot().onedim.solves;
  AhpdWarmState warm;
  for (size_t s = 0; s < path.size(); ++s) {
    const auto [tau, n] = path[s];
    const std::vector<Interval> cold = ColdIntervals(priors, tau, n);
    for (size_t i = 0; i < priors.size(); ++i) {
      EXPECT_NEAR(warmed[s][i].lower, cold[i].lower, 1e-9)
          << "step " << s << " prior " << i << " tau " << tau << " n " << n;
      EXPECT_NEAR(warmed[s][i].upper, cold[i].upper, 1e-9)
          << "step " << s << " prior " << i << " tau " << tau << " n " << n;
    }
    const auto warm_choice = *AhpdSelect(priors, tau, n, 0.05, &warm);
    const auto cold_choice = *AhpdSelect(priors, tau, n, 0.05);
    EXPECT_EQ(warm_choice.prior_index, cold_choice.prior_index)
        << "step " << s;
  }
  ResetThreadHpdStats();
  return fallbacks;
}

/// The same walk with each prior's last unimodal interval handed to Newton
/// as it stands, not moved onto the new posterior: the reference the
/// predicted carry may not fall back more often than. Returns its 1-D
/// fallbacks.
uint64_t UnmovedCarryFallbacks(const std::vector<BetaPrior>& priors,
                               const Path& path) {
  std::vector<std::optional<Interval>> carry(priors.size());
  ResetThreadHpdStats();
  for (const auto& [tau, n] : path) {
    for (size_t i = 0; i < priors.size(); ++i) {
      const HpdResult hpd = *HpdInterval(
          *priors[i].Posterior(tau, n), 0.05,
          carry[i].has_value() ? &*carry[i] : nullptr);
      carry[i] = hpd.shape == BetaShape::kUnimodal
                     ? std::optional<Interval>(hpd.interval)
                     : std::nullopt;
    }
  }
  const uint64_t fallbacks = ThreadHpdStatsSnapshot().onedim.solves;
  ResetThreadHpdStats();
  return fallbacks;
}

void ExpectPredictedWalkMatchesCold(const std::vector<BetaPrior>& priors,
                                    const Path& path) {
  const uint64_t predicted = ExpectWarmWalkMatchesCold(priors, path);
  EXPECT_LE(predicted, UnmovedCarryFallbacks(priors, path));
}

/// Ten labels per step, each correct with probability `accuracy`.
Path AuditPath(double accuracy, uint64_t seed, int steps) {
  Rng rng(seed);
  Path path;
  double tau = 0.0;
  for (int step = 1; step <= steps; ++step) {
    for (int label = 0; label < 10; ++label) tau += rng.Bernoulli(accuracy);
    path.emplace_back(tau, 10.0 * step);
  }
  return path;
}

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
  const std::vector<Interval> candidates = ColdIntervals(priors, 28, 30);
  for (const Interval& candidate : candidates) {
    EXPECT_LE(choice.interval.Width(), candidate.Width() + 1e-12);
  }
  EXPECT_DOUBLE_EQ(choice.interval.Width(),
                   candidates[choice.prior_index].Width());
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
  // Swept over the grid a prior-skipping AhpdSelect must hold on: n on a
  // geometric grid over [1, 3000], each also shifted by a fractional offset
  // (design-effect-adjusted samples), 51 tau per n from 0 to n, and four
  // alphas. prior_index == 1 would mean Jeffreys won outright or tied
  // Uniform below Kerman (lower indices win ties).
  const auto priors = DefaultUninformativePriors();
  ASSERT_EQ(priors[1].name, "Jeffreys");
  constexpr int kSteps = 60;
  constexpr int kTaus = 51;
  int cells = 0;
  double previous = 0.0;
  for (int k = 0; k <= kSteps; ++k) {
    const double whole = std::round(std::pow(3000.0, double(k) / kSteps));
    if (whole == previous) continue;
    previous = whole;
    for (const double n : {whole, whole + 0.37}) {
      for (int j = 0; j < kTaus; ++j) {
        const double tau = n * j / (kTaus - 1);
        for (const double alpha : {0.01, 0.05, 0.1, 0.2}) {
          const auto choice = AhpdSelect(priors, tau, n, alpha);
          ASSERT_TRUE(choice.ok()) << "n=" << n << " tau=" << tau;
          EXPECT_NE(choice->prior_index, 1u)
              << "n=" << n << " tau=" << tau << " alpha=" << alpha;
          ++cells;
        }
      }
    }
  }
  EXPECT_GT(cells, 20000);
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
    const auto warmed = *AhpdSelect(priors, tau, n, 0.05, &warm);
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
  const auto first = *AhpdSelect(priors, 26, 30, 0.05, &warm);
  ASSERT_EQ(warm.priors.size(), priors.size());
  for (const auto& carried : warm.priors) EXPECT_TRUE(carried.has_value());
  ResetThreadHpdStats();
  const auto second = *AhpdSelect(priors, 26, 30, 0.05, &warm);
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
  ASSERT_TRUE(AhpdSelect(priors, 20, 30, 0.05, &warm).ok());
  for (const auto& carried : warm.priors) EXPECT_TRUE(carried.has_value());
  ASSERT_TRUE(AhpdSelect(priors, 30, 30, 0.05, &warm).ok());
  for (const auto& carried : warm.priors) EXPECT_FALSE(carried.has_value());
}

TEST(AhpdWarmTest, CarryCrossesLimitingCaseBoundaries) {
  // tau = n (kIncreasing) then an interior outcome: the carried interval
  // touches 1.0 and must still seed a successful unimodal solve.
  const auto priors = DefaultUninformativePriors();
  AhpdWarmState warm;
  const auto extreme = *AhpdSelect(priors, 30, 30, 0.05, &warm);
  EXPECT_DOUBLE_EQ(extreme.interval.upper, 1.0);
  const auto interior = AhpdSelect(priors, 55, 70, 0.05, &warm);
  ASSERT_TRUE(interior.ok());
  const auto cold = *AhpdSelect(priors, 55, 70, 0.05);
  EXPECT_NEAR(interior->interval.lower, cold.interval.lower, 5e-7);
  EXPECT_NEAR(interior->interval.upper, cold.interval.upper, 5e-7);
}

TEST(AhpdWarmTest, PriorSetSizeChangeInvalidatesTheCarry) {
  AhpdWarmState warm;
  auto priors = DefaultUninformativePriors();
  ASSERT_TRUE(AhpdSelect(priors, 20, 30, 0.05, &warm).ok());
  EXPECT_EQ(warm.priors.size(), 3u);
  priors.push_back(*InformativePrior(0.9, 50.0));
  ASSERT_TRUE(AhpdSelect(priors, 22, 33, 0.05, &warm).ok());
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
  ASSERT_TRUE(AhpdSelect(priors, 90, 100, 0.05, &warm).ok());
  const auto cold = *AhpdSelect(priors, 60, 200, 0.05);
  const auto warmed = *AhpdSelect(priors, 60, 200, 0.05, &warm);
  EXPECT_NEAR(warmed.interval.lower, cold.interval.lower, 5e-7);
  EXPECT_NEAR(warmed.interval.upper, cold.interval.upper, 5e-7);
  EXPECT_EQ(warmed.prior_index, cold.prior_index);
}

TEST(AhpdPredictorTest, AuditPathsMatchColdSelection) {
  // n += 10 per step with tau drawn at four accuracies; at 0.99 the first
  // steps are all correct, so the walk starts in the increasing limiting
  // case and enters the unimodal branch with an empty carry.
  for (const double accuracy : {0.54, 0.85, 0.91, 0.99}) {
    SCOPED_TRACE(accuracy);
    ExpectPredictedWalkMatchesCold(DefaultUninformativePriors(),
                                   AuditPath(accuracy, 2024, 60));
  }
}

TEST(AhpdPredictorTest, FractionalEffectiveSamplesMatchColdSelection) {
  // Cluster designs feed the design-effect-adjusted (tau_eff, n_eff):
  // fractional, and n_eff can shrink between steps when the design effect
  // grows.
  Rng rng(7);
  Path path;
  double deff = 1.5;
  for (const auto& [tau, n] : AuditPath(0.85, 11, 60)) {
    deff = 0.7 * deff + 0.3 * rng.Uniform(1.0, 3.0);
    path.emplace_back(tau / deff, n / deff);
  }
  ExpectPredictedWalkMatchesCold(DefaultUninformativePriors(), path);
}

TEST(AhpdPredictorTest, PathsAcrossLimitingCasesMatchColdSelection) {
  // tau = n (increasing), then interior, then a fractional tau_eff = n_eff
  // that drops the carry, then interior again; and the mirror path from
  // tau = 0 (decreasing).
  ExpectPredictedWalkMatchesCold(
      DefaultUninformativePriors(),
      {{10, 10}, {20, 20}, {29, 30}, {38, 40}, {48.6, 48.6}, {55, 60},
       {64, 70}});
  ExpectPredictedWalkMatchesCold(
      DefaultUninformativePriors(),
      {{0, 10}, {0, 20}, {1, 30}, {2, 40}, {2.5, 50}, {0, 55}, {4, 70}});
}

TEST(AhpdPredictorTest, GridSeededFromNeighbourMatchesColdSolve) {
  // Every (a, b) of the cross-check grid, each seeded from the carry of
  // its left neighbour in the row (the first point of a row starts cold).
  const std::vector<double> grid = {0.5, 0.8, 1.05, 1.3, 2.0,  3.5,   7.0,
                                    15,  40,  120,  400, 1500, 5000};
  uint64_t predicted_fallbacks = 0;
  uint64_t unmoved_fallbacks = 0;
  for (const double b : grid) {
    std::optional<HpdCarry> carry;
    std::optional<Interval> unmoved;
    for (const double a : grid) {
      SCOPED_TRACE(testing::Message() << "a " << a << " b " << b);
      const BetaDistribution posterior = *BetaDistribution::Create(a, b);
      const HpdResult cold = *HpdInterval(posterior, 0.05);
      ResetThreadHpdStats();
      const HpdResult warm = *HpdIntervalWarm(posterior, 0.05, &carry);
      predicted_fallbacks += ThreadHpdStatsSnapshot().onedim.solves;
      EXPECT_NEAR(warm.interval.lower, cold.interval.lower, 1e-9);
      EXPECT_NEAR(warm.interval.upper, cold.interval.upper, 1e-9);
      ASSERT_EQ(carry.has_value(), warm.shape == BetaShape::kUnimodal);

      ResetThreadHpdStats();
      const HpdResult old = *HpdInterval(
          posterior, 0.05, unmoved.has_value() ? &*unmoved : nullptr);
      unmoved_fallbacks += ThreadHpdStatsSnapshot().onedim.solves;
      unmoved = old.shape == BetaShape::kUnimodal
                    ? std::optional<Interval>(old.interval)
                    : std::nullopt;
    }
  }
  ResetThreadHpdStats();
  EXPECT_LE(predicted_fallbacks, unmoved_fallbacks);
}

TEST(AhpdPredictorTest, CarryRecordsThePosteriorItSolved) {
  const auto priors = DefaultUninformativePriors();
  AhpdWarmState warm;
  ASSERT_TRUE(AhpdSelect(priors, 26, 30, 0.05, &warm).ok());
  for (size_t i = 0; i < priors.size(); ++i) {
    const BetaDistribution posterior = *priors[i].Posterior(26, 30);
    ASSERT_TRUE(warm.priors[i].has_value());
    EXPECT_EQ(warm.priors[i]->posterior.a(), posterior.a());
    EXPECT_EQ(warm.priors[i]->posterior.b(), posterior.b());
  }
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
