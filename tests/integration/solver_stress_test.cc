#include <cmath>

#include "kgacc/kgacc.h"

#include <gtest/gtest.h>

#include "reference/slsqp.h"

namespace kgacc {
namespace {

/// Randomized stress of the HPD machinery: across a wide cloud of
/// posteriors (including shapes far outside the curated test grids) the
/// Newton audit path, the 1-D root and the SQP reference must satisfy the
/// coverage constraint and agree with each other. The SQP has no fallback;
/// on the few draws where it does not converge, the root is held to
/// Thm. 1's certificate instead. Seeded, so failures are reproducible.

TEST(HpdSolverStress, RandomPosteriorCloud) {
  Rng rng(20260612);
  int sqp_unconverged = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Log-uniform shapes spanning [1.05, ~2000): early-iteration to
    // deep-into-the-audit posteriors.
    const double a = 1.05 + std::exp(rng.Uniform(0.0, 7.6));
    const double b = 1.05 + std::exp(rng.Uniform(0.0, 5.5));
    const double alpha = rng.Uniform(0.005, 0.2);
    const auto d = *BetaDistribution::Create(a, b);

    const auto newton = HpdInterval(d, alpha);
    ASSERT_TRUE(newton.ok()) << "a=" << a << " b=" << b << " alpha=" << alpha;

    const auto oned = HpdIntervalByRoot(d, alpha);
    ASSERT_TRUE(oned.ok()) << "a=" << a << " b=" << b;

    // Coverage and equal endpoint densities for the root.
    const double oned_cov =
        d.Cdf(oned->interval.upper) - d.Cdf(oned->interval.lower);
    EXPECT_NEAR(oned_cov, 1.0 - alpha, 1e-12)
        << "a=" << a << " b=" << b << " alpha=" << alpha;
    EXPECT_NEAR(d.LogPdf(oned->interval.lower),
                d.LogPdf(oned->interval.upper), 1e-9)
        << "a=" << a << " b=" << b << " alpha=" << alpha;

    // Solver agreement (scaled by the interval magnitude).
    const double tol = 1e-4 * std::max(1e-2, oned->interval.Width());
    EXPECT_NEAR(newton->interval.lower, oned->interval.lower, tol)
        << "a=" << a << " b=" << b << " alpha=" << alpha;
    EXPECT_NEAR(newton->interval.upper, oned->interval.upper, tol)
        << "a=" << a << " b=" << b << " alpha=" << alpha;

    const auto sqp = HpdIntervalSqp(d, alpha);
    if (!sqp.ok()) {
      ++sqp_unconverged;
      continue;
    }
    const double sqp_cov =
        d.Cdf(sqp->interval.upper) - d.Cdf(sqp->interval.lower);
    EXPECT_NEAR(sqp_cov, 1.0 - alpha, 1e-5)
        << "a=" << a << " b=" << b << " alpha=" << alpha;
    EXPECT_NEAR(sqp->interval.lower, oned->interval.lower, tol)
        << "a=" << a << " b=" << b << " alpha=" << alpha;
    EXPECT_NEAR(sqp->interval.upper, oned->interval.upper, tol)
        << "a=" << a << " b=" << b << " alpha=" << alpha;
  }
  EXPECT_LE(sqp_unconverged, 5);
}

TEST(HpdSolverStress, ExtremeEffectiveSamplesFromDesignEffects) {
  // Design-effect-adjusted posteriors arrive with fractional, sometimes
  // strongly shrunken (deff up to 20) or inflated (deff down to 0.25)
  // effective samples. The interval machinery must stay well-behaved.
  const auto priors = DefaultUninformativePriors();
  for (const double n_eff : {1.5, 7.3, 150.0, 15000.0}) {
    for (const double rate : {0.02, 0.5, 0.93, 0.999}) {
      const double tau_eff = rate * n_eff;
      const auto choice = AhpdSelect(priors, tau_eff, n_eff, 0.05);
      ASSERT_TRUE(choice.ok()) << n_eff << " " << rate;
      EXPECT_GE(choice->interval.lower, 0.0);
      EXPECT_LE(choice->interval.upper, 1.0);
      EXPECT_GT(choice->interval.Width(), 0.0);
      // The point estimate region is always covered.
      EXPECT_TRUE(choice->interval.Contains(
          std::clamp(rate, choice->interval.lower,
                     choice->interval.upper)));
    }
  }
}

TEST(HpdSolverStress, TinyAlphaAndWideAlpha) {
  const auto d = *BetaDistribution::Create(40.0, 8.0);
  for (const double alpha : {0.001, 0.3, 0.6}) {
    const auto hpd = HpdInterval(d, alpha);
    ASSERT_TRUE(hpd.ok()) << alpha;
    EXPECT_NEAR(d.Cdf(hpd->interval.upper) - d.Cdf(hpd->interval.lower),
                1.0 - alpha, 1e-5)
        << alpha;
    const auto et = *EqualTailedInterval(d, alpha);
    EXPECT_LE(hpd->interval.Width(), et.Width() + 1e-7) << alpha;
  }
}

}  // namespace
}  // namespace kgacc
