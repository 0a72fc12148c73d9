#include "kgacc/intervals/priors.h"

#include <cmath>

#include "kgacc/intervals/credible.h"
#include "kgacc/math/normal.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(PriorsTest, StandardUninformativeParameters) {
  EXPECT_NEAR(KermanPrior().a, 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(KermanPrior().b, 1.0 / 3.0, 1e-15);
  EXPECT_DOUBLE_EQ(JeffreysPrior().a, 0.5);
  EXPECT_DOUBLE_EQ(JeffreysPrior().b, 0.5);
  EXPECT_DOUBLE_EQ(UniformPrior().a, 1.0);
  EXPECT_DOUBLE_EQ(UniformPrior().b, 1.0);
}

TEST(PriorsTest, DefaultTrioOrderAndNames) {
  const auto priors = DefaultUninformativePriors();
  ASSERT_EQ(priors.size(), 3u);
  EXPECT_EQ(priors[0].name, "Kerman");
  EXPECT_EQ(priors[1].name, "Jeffreys");
  EXPECT_EQ(priors[2].name, "Uniform");
}

TEST(PriorsTest, ConjugateUpdate) {
  // Beta(1,1) + (tau=8, n=10) -> Beta(9, 3).
  const auto posterior = *UniformPrior().Posterior(8, 10);
  EXPECT_DOUBLE_EQ(posterior.a(), 9.0);
  EXPECT_DOUBLE_EQ(posterior.b(), 3.0);
}

TEST(PriorsTest, FractionalEffectiveCountsSupported) {
  const auto posterior = *JeffreysPrior().Posterior(12.7, 17.3);
  EXPECT_DOUBLE_EQ(posterior.a(), 13.2);
  EXPECT_NEAR(posterior.b(), 5.1, 1e-12);
}

TEST(PriorsTest, PosteriorRejectsInconsistentCounts) {
  EXPECT_FALSE(UniformPrior().Posterior(11, 10).ok());
  EXPECT_FALSE(UniformPrior().Posterior(-1, 10).ok());
}

TEST(PriorsTest, ZeroDataPosteriorIsThePrior) {
  const auto posterior = *KermanPrior().Posterior(0, 0);
  EXPECT_NEAR(posterior.a(), 1.0 / 3.0, 1e-15);
  EXPECT_NEAR(posterior.b(), 1.0 / 3.0, 1e-15);
}

TEST(InformativePriorTest, EncodesAccuracyTimesWeight) {
  // Example 2: accuracy 0.80, weight 100 -> Beta(80, 20).
  const auto prior = *InformativePrior(0.80, 100.0);
  EXPECT_DOUBLE_EQ(prior.a, 80.0);
  EXPECT_DOUBLE_EQ(prior.b, 20.0);
  const auto prior2 = *InformativePrior(0.90, 100.0);
  EXPECT_DOUBLE_EQ(prior2.a, 90.0);
  EXPECT_DOUBLE_EQ(prior2.b, 10.0);
}

TEST(InformativePriorTest, PriorMeanMatchesAccuracy) {
  const auto prior = *InformativePrior(0.73, 50.0);
  const auto dist = *BetaDistribution::Create(prior.a, prior.b);
  EXPECT_NEAR(dist.Mean(), 0.73, 1e-12);
}

TEST(InformativePriorTest, CustomNameIsKept) {
  const auto prior = *InformativePrior(0.8, 10.0, "sister-kg");
  EXPECT_EQ(prior.name, "sister-kg");
}

TEST(InformativePriorTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(InformativePrior(0.0, 10.0).ok());
  EXPECT_FALSE(InformativePrior(1.0, 10.0).ok());
  EXPECT_FALSE(InformativePrior(0.5, 0.0).ok());
  EXPECT_FALSE(InformativePrior(0.5, -5.0).ok());
}

TEST(InformativePriorTest, RefusesWeightsAboveTheBound) {
  for (const double weight : {1.0000001e9, 1e10, 1e14, 1e20, 1e50, 1e100,
                              1e155, 1e308}) {
    const auto prior = InformativePrior(0.8, weight);
    ASSERT_FALSE(prior.ok()) << weight;
    EXPECT_EQ(prior.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(prior.status().message().find("prior 'Informative(0.800000,"),
              std::string::npos)
        << prior.status().ToString();
  }
  const auto named = InformativePrior(0.8, 1e10, "sister-kg");
  ASSERT_FALSE(named.ok());
  EXPECT_NE(named.status().message().find("'sister-kg'"), std::string::npos)
      << named.status().ToString();
}

TEST(InformativePriorTest, WeightsUpToTheBoundAreUnchanged) {
  for (const double weight : {1e3, 1e6, 1e9}) {
    const auto prior = InformativePrior(0.8, weight);
    ASSERT_TRUE(prior.ok()) << prior.status().ToString();
    EXPECT_EQ(prior->a, 0.8 * weight);
    EXPECT_EQ(prior->b, (1.0 - 0.8) * weight);
  }
}

TEST(InformativePriorTest, EveryAccuracyAtTheBoundIsAccepted) {
  // At weight kMaxPriorWeight, a + b rounds above the bound for some
  // accuracies; those priors are still accepted, by CheckPrior too.
  int rounded_up = 0;
  for (int k = 1; k < 1000; ++k) {
    const double accuracy = k / 1000.0;
    const auto prior = InformativePrior(accuracy, kMaxPriorWeight);
    ASSERT_TRUE(prior.ok()) << accuracy << ": " << prior.status().ToString();
    EXPECT_TRUE(CheckPrior(*prior).ok()) << accuracy;
    rounded_up += prior->a + prior->b > kMaxPriorWeight;
  }
  EXPECT_GT(rounded_up, 0);
}

TEST(InformativePriorTest, WeightsUpToTheBoundKeepNormalWidths) {
  // Up to the bound, the HPD interval of a heavy prior's posterior is a
  // proper interval as wide as the normal approximation's 2 z sd.
  const double z = *TwoSidedZ(0.05);
  for (const double weight : {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}) {
    const BetaDistribution posterior =
        *InformativePrior(0.8, weight)->Posterior(170, 200);
    const auto hpd = HpdInterval(posterior, 0.05);
    ASSERT_TRUE(hpd.ok()) << weight << ": " << hpd.status().ToString();
    const double normal_width = 2.0 * z * std::sqrt(posterior.Variance());
    EXPECT_LT(hpd->interval.lower, hpd->interval.upper) << weight;
    EXPECT_NEAR(hpd->interval.upper - hpd->interval.lower, normal_width,
                0.01 * normal_width)
        << weight;
  }
}

}  // namespace
}  // namespace kgacc
