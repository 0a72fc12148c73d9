#include <cmath>
#include <tuple>

#include "kgacc/kgacc.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

/// Numerical verification of the paper's formal results (§4.3), each stated
/// over the posterior families that actually arise in KG accuracy
/// evaluation: Beta(a + tau, b + n - tau) for uninformative and informative
/// priors, all annotation outcomes tau in [0, n], and the three standard
/// significance levels.

// ---------------------------------------------------------------------------
// Theorem 1: for 0 < tau < n the 1-alpha HPD interval is the smallest
// interval with F(u) - F(l) = 1 - alpha.
// ---------------------------------------------------------------------------

class Theorem1 : public ::testing::TestWithParam<
                     std::tuple<double, int, int, double>> {};

TEST_P(Theorem1, HpdIsTheShortestValidInterval) {
  const auto [prior_ab, n, tau, alpha] = GetParam();
  const BetaPrior prior{"p", prior_ab, prior_ab};
  const auto posterior = *prior.Posterior(tau, n);
  const auto hpd = *HpdInterval(posterior, alpha);

  // (1) It is a valid 1-alpha credible interval.
  EXPECT_NEAR(posterior.Cdf(hpd.interval.upper) -
                  posterior.Cdf(hpd.interval.lower),
              1.0 - alpha, 1e-6);

  // (2) No interval of equal coverage is shorter: sweep the lower CDF mass.
  for (int i = 0; i <= 25; ++i) {
    const double p_lo = alpha * i / 25.0;
    const double l = *posterior.Quantile(p_lo);
    const double u = *posterior.Quantile(std::min(1.0, p_lo + 1.0 - alpha));
    EXPECT_GE((u - l) - hpd.interval.Width(), -1e-6)
        << "p_lo=" << p_lo;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AnnotationOutcomes, Theorem1,
    ::testing::Combine(::testing::Values(1.0 / 3.0, 0.5, 1.0, 10.0),
                       ::testing::Values(30, 120),
                       ::testing::Values(1, 8, 15, 27),
                       ::testing::Values(0.10, 0.05, 0.01)));

// ---------------------------------------------------------------------------
// Theorem 2: the HPD interval is unique — any distinct interval of the same
// width covers strictly less than 1 - alpha.
// ---------------------------------------------------------------------------

class Theorem2 : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(Theorem2, EqualWidthShiftedIntervalsCoverLess) {
  const auto [prior_ab, tau] = GetParam();
  const int n = 30;
  const double alpha = 0.05;
  const BetaPrior prior{"p", prior_ab, prior_ab};
  const auto posterior = *prior.Posterior(tau, n);
  const auto hpd = *HpdInterval(posterior, alpha);
  const double width = hpd.interval.Width();
  const double covered = posterior.Cdf(hpd.interval.upper) -
                         posterior.Cdf(hpd.interval.lower);

  for (const double shift :
       {-0.05, -0.02, -0.005, 0.005, 0.02, 0.05}) {
    const double l = hpd.interval.lower + shift;
    const double u = l + width;
    if (l < 0.0 || u > 1.0) continue;
    const double alt = posterior.Cdf(u) - posterior.Cdf(l);
    EXPECT_LT(alt, covered + 1e-9) << "shift=" << shift;
    // Strictness for non-trivial shifts.
    if (std::fabs(shift) >= 0.005) {
      EXPECT_LT(alt, covered) << "shift=" << shift;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AnnotationOutcomes, Theorem2,
    ::testing::Combine(::testing::Values(1.0 / 3.0, 0.5, 1.0),
                       ::testing::Values(3, 15, 24, 28)));

// ---------------------------------------------------------------------------
// Corollaries 1-2: limiting cases tau = 0 and tau = n under uninformative
// priors — the one-sided interval of Eq. 10/11 is the shortest and unique.
// ---------------------------------------------------------------------------

class Corollaries : public ::testing::TestWithParam<std::tuple<double, int>> {
};

TEST_P(Corollaries, AllCorrectLimitingCase) {
  const auto [prior_ab, n] = GetParam();
  const double alpha = 0.05;
  const BetaPrior prior{"p", prior_ab, prior_ab};
  const auto posterior = *prior.Posterior(n, n);  // tau = n.
  const auto hpd = *HpdInterval(posterior, alpha);
  // Eq. 10: [qBeta(alpha), 1].
  EXPECT_DOUBLE_EQ(hpd.interval.upper, 1.0);
  EXPECT_NEAR(hpd.interval.lower, *posterior.Quantile(alpha), 1e-12);
  // Shortest: any interior interval of the same coverage is longer because
  // the density increases monotonically toward 1.
  for (int i = 1; i <= 10; ++i) {
    const double p_lo = alpha * (10 - i) / 10.0;
    const double l = *posterior.Quantile(p_lo);
    const double u = *posterior.Quantile(std::min(1.0, p_lo + 1.0 - alpha));
    EXPECT_GE(u - l, hpd.interval.Width() - 1e-9);
  }
}

TEST_P(Corollaries, NoneCorrectLimitingCase) {
  const auto [prior_ab, n] = GetParam();
  const double alpha = 0.05;
  const BetaPrior prior{"p", prior_ab, prior_ab};
  const auto posterior = *prior.Posterior(0, n);  // tau = 0.
  const auto hpd = *HpdInterval(posterior, alpha);
  // Eq. 11: [0, qBeta(1 - alpha)].
  EXPECT_DOUBLE_EQ(hpd.interval.lower, 0.0);
  EXPECT_NEAR(hpd.interval.upper, *posterior.Quantile(1.0 - alpha), 1e-12);
  // Symmetry with the all-correct case: same width for the mirrored
  // posterior.
  const auto mirrored = *prior.Posterior(n, n);
  const auto mirrored_hpd = *HpdInterval(mirrored, alpha);
  EXPECT_NEAR(hpd.interval.Width(), mirrored_hpd.interval.Width(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    UninformativePriors, Corollaries,
    ::testing::Combine(::testing::Values(1.0 / 3.0, 0.5, 1.0),
                       ::testing::Values(10, 30, 100)));

// ---------------------------------------------------------------------------
// Theorem 3: for a unimodal symmetric posterior the HPD and ET intervals
// coincide. Symmetry arises when a + tau = b + n - tau (§4.3).
// ---------------------------------------------------------------------------

class Theorem3 : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(Theorem3, SymmetricPosteriorHpdEqualsEt) {
  const auto [prior_ab, n] = GetParam();
  const int tau = n / 2;  // With a = b this symmetrizes the posterior.
  const BetaPrior prior{"p", prior_ab, prior_ab};
  const auto posterior = *prior.Posterior(tau, n);
  ASSERT_EQ(posterior.a(), posterior.b());
  for (const double alpha : {0.10, 0.05, 0.01}) {
    const auto hpd = *HpdInterval(posterior, alpha);
    const auto et = *EqualTailedInterval(posterior, alpha);
    EXPECT_NEAR(hpd.interval.lower, et.lower, 1e-6) << alpha;
    EXPECT_NEAR(hpd.interval.upper, et.upper, 1e-6) << alpha;
    // Both are centered on 1/2.
    EXPECT_NEAR(hpd.interval.lower + hpd.interval.upper, 1.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SymmetricOutcomes, Theorem3,
    ::testing::Combine(::testing::Values(1.0 / 3.0, 0.5, 1.0, 5.0),
                       ::testing::Values(10, 30, 200)));

// ---------------------------------------------------------------------------
// The first-order condition behind Theorem 1's Lagrangian argument:
// f(l) = f(u) at the interior optimum.
// ---------------------------------------------------------------------------

TEST(TheoremMachinery, EqualDensityEndpointsAcrossThePosteriorFamily) {
  for (const BetaPrior& prior : DefaultUninformativePriors()) {
    for (const int tau : {5, 12, 20, 25}) {
      const auto posterior = *prior.Posterior(tau, 30);
      if (posterior.Shape() != BetaShape::kUnimodal) continue;
      const auto hpd = *HpdInterval(posterior, 0.05);
      const double fl = posterior.Pdf(hpd.interval.lower);
      const double fu = posterior.Pdf(hpd.interval.upper);
      EXPECT_NEAR(fl, fu, 1e-3 * std::max(fl, fu))
          << prior.name << " tau=" << tau;
    }
  }
}

// ---------------------------------------------------------------------------
// Posterior contraction: the machinery behind the framework's guaranteed
// termination — HPD width is O(1/sqrt(n)) along a consistent data path.
// ---------------------------------------------------------------------------

TEST(TheoremMachinery, HpdWidthContractsAtRootNRate) {
  const BetaPrior prior = JeffreysPrior();
  double previous_scaled = 0.0;
  for (const int n : {25, 100, 400, 1600}) {
    const int tau = (n * 4) / 5;  // 80% accuracy path.
    const auto posterior = *prior.Posterior(tau, n);
    const auto hpd = *HpdInterval(posterior, 0.05);
    const double scaled = hpd.interval.Width() * std::sqrt(n);
    if (previous_scaled != 0.0) {
      EXPECT_NEAR(scaled, previous_scaled, 0.12 * previous_scaled) << n;
    }
    previous_scaled = scaled;
  }
}

}  // namespace
}  // namespace kgacc
