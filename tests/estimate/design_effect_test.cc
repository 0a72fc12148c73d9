#include "kgacc/estimate/design_effect.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

AccuracyEstimate MakeEstimate(double mu, double variance, uint64_t n,
                              uint64_t units) {
  AccuracyEstimate est;
  est.mu = mu;
  est.variance = variance;
  est.n = n;
  est.tau = static_cast<uint64_t>(mu * n);
  est.num_units = units;
  return est;
}

TEST(DesignEffectTest, IdentityWhenVarianceMatchesSrs) {
  // V_design == mu(1-mu)/n  =>  deff = 1, effective sample unchanged.
  const auto est = MakeEstimate(0.8, 0.8 * 0.2 / 100.0, 100, 10);
  const auto eff = ComputeEffectiveSample(est);
  EXPECT_DOUBLE_EQ(eff.deff, 1.0);
  EXPECT_DOUBLE_EQ(eff.n_eff, 100.0);
  EXPECT_DOUBLE_EQ(eff.tau_eff, 80.0);
}

TEST(DesignEffectTest, ClusteringInflationShrinksEffectiveSample) {
  // Variance twice the SRS reference: deff = 2, n_eff = n/2.
  const auto est = MakeEstimate(0.8, 2.0 * 0.8 * 0.2 / 100.0, 100, 10);
  const auto eff = ComputeEffectiveSample(est);
  EXPECT_DOUBLE_EQ(eff.deff, 2.0);
  EXPECT_DOUBLE_EQ(eff.n_eff, 50.0);
  EXPECT_DOUBLE_EQ(eff.tau_eff, 40.0);
}

TEST(DesignEffectTest, NegativeClusteringGrowsEffectiveSample) {
  // Balanced clusters (FACTBENCH regime): deff < 1 grows n_eff.
  const auto est = MakeEstimate(0.5, 0.5 * 0.5 / 100.0 * 0.5, 100, 10);
  const auto eff = ComputeEffectiveSample(est);
  EXPECT_DOUBLE_EQ(eff.deff, 0.5);
  EXPECT_DOUBLE_EQ(eff.n_eff, 200.0);
}

TEST(DesignEffectTest, ClampsAtTheLibraryBounds) {
  EXPECT_DOUBLE_EQ(kMinDesignEffect, 0.25);
  EXPECT_DOUBLE_EQ(kMaxDesignEffect, 20.0);
  const auto tiny = MakeEstimate(0.5, 1e-9, 100, 10);
  EXPECT_DOUBLE_EQ(ComputeEffectiveSample(tiny).deff, kMinDesignEffect);
  const auto huge = MakeEstimate(0.5, 1.0, 100, 10);
  EXPECT_DOUBLE_EQ(ComputeEffectiveSample(huge).deff, kMaxDesignEffect);
}

TEST(DesignEffectTest, DegenerateEstimateFallsBackToUnity) {
  // mu = 1 makes the SRS reference variance zero.
  const auto all_correct = MakeEstimate(1.0, 0.0, 50, 10);
  const auto eff = ComputeEffectiveSample(all_correct);
  EXPECT_DOUBLE_EQ(eff.deff, 1.0);
  EXPECT_DOUBLE_EQ(eff.n_eff, 50.0);
  EXPECT_DOUBLE_EQ(eff.tau_eff, 50.0);
}

TEST(DesignEffectTest, SingleUnitFallsBackToUnity) {
  const auto est = MakeEstimate(0.5, 0.01, 3, 1);
  EXPECT_DOUBLE_EQ(ComputeEffectiveSample(est).deff, 1.0);
}

TEST(DesignEffectTest, TauEffConsistentWithMu) {
  const auto est = MakeEstimate(0.73, 1.5 * 0.73 * 0.27 / 60.0, 60, 20);
  const auto eff = ComputeEffectiveSample(est);
  EXPECT_NEAR(eff.tau_eff / eff.n_eff, 0.73, 1e-12);
}

}  // namespace
}  // namespace kgacc
