#include "kgacc/intervals/frequentist.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "kgacc/math/binomial.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

AccuracyEstimate SrsEstimate(double mu, uint64_t n) {
  AccuracyEstimate est;
  est.mu = mu;
  est.n = n;
  est.tau = static_cast<uint64_t>(std::llround(mu * n));
  est.num_units = n;
  est.variance = mu * (1.0 - mu) / static_cast<double>(n);
  return est;
}

TEST(WaldIntervalTest, MatchesHandComputedValue) {
  // n=100, mu=0.5: 0.5 +- 1.96 * 0.05.
  const auto ci = *WaldInterval(SrsEstimate(0.5, 100), 0.05);
  EXPECT_NEAR(ci.lower, 0.5 - 1.959963984540054 * 0.05, 1e-9);
  EXPECT_NEAR(ci.upper, 0.5 + 1.959963984540054 * 0.05, 1e-9);
}

TEST(WaldIntervalTest, ZeroVarianceCollapsesToPoint) {
  // The Example 1 pathology: all-correct sample gives a zero-width CI.
  const auto ci = *WaldInterval(SrsEstimate(1.0, 30), 0.05);
  EXPECT_DOUBLE_EQ(ci.lower, 1.0);
  EXPECT_DOUBLE_EQ(ci.upper, 1.0);
  EXPECT_DOUBLE_EQ(ci.Width(), 0.0);
  EXPECT_DOUBLE_EQ(ci.Moe(), 0.0);
}

TEST(WaldIntervalTest, OvershootsNearBoundary) {
  // mu = 0.95, n = 20: the upper bound exceeds 1 — the documented Wald flaw.
  const auto ci = *WaldInterval(SrsEstimate(0.95, 20), 0.05);
  EXPECT_GT(ci.upper, 1.0);
}

TEST(WaldIntervalTest, UsesDesignVarianceDirectly) {
  AccuracyEstimate est = SrsEstimate(0.5, 100);
  est.variance = 0.01;  // Cluster-design variance, larger than SRS.
  const auto ci = *WaldInterval(est, 0.05);
  EXPECT_NEAR(ci.Width(), 2.0 * 1.959963984540054 * 0.1, 1e-9);
}

TEST(WaldIntervalTest, RejectsEmptySample) {
  AccuracyEstimate empty;
  EXPECT_FALSE(WaldInterval(empty, 0.05).ok());
}

TEST(WilsonIntervalTest, MatchesHandComputedValue) {
  // n=100, mu=0.5, alpha=0.05: [0.40383, 0.59617].
  const auto ci = *WilsonInterval(0.5, 100, 0.05);
  EXPECT_NEAR(ci.lower, 0.40383, 2e-5);
  EXPECT_NEAR(ci.upper, 0.59617, 2e-5);
}

TEST(WilsonIntervalTest, NeverDegenerateAtBoundary) {
  // Unlike Wald, Wilson keeps positive width at mu = 1.
  const auto ci = *WilsonInterval(1.0, 30, 0.05);
  EXPECT_GT(ci.Width(), 0.0);
  EXPECT_LE(ci.upper, 1.0 + 1e-12);
}

TEST(WilsonIntervalTest, StaysInsideUnitInterval) {
  for (const double mu : {0.0, 0.05, 0.5, 0.95, 1.0}) {
    for (const double n : {5.0, 30.0, 1000.0}) {
      const auto ci = *WilsonInterval(mu, n, 0.05);
      EXPECT_GE(ci.lower, -1e-12) << mu << " " << n;
      EXPECT_LE(ci.upper, 1.0 + 1e-12) << mu << " " << n;
    }
  }
}

TEST(WilsonIntervalTest, CenterRelocatedTowardHalf) {
  const auto ci = *WilsonInterval(0.95, 50, 0.05);
  const double center = 0.5 * (ci.lower + ci.upper);
  EXPECT_LT(center, 0.95);
}

TEST(WilsonIntervalTest, WidthShrinksWithN) {
  double prev = 1.0;
  for (const double n : {10.0, 30.0, 100.0, 300.0, 1000.0}) {
    const double w = (*WilsonInterval(0.8, n, 0.05)).Width();
    EXPECT_LT(w, prev);
    prev = w;
  }
}

TEST(WilsonIntervalTest, AcceptsFractionalEffectiveSamples) {
  const auto ci = WilsonInterval(0.8, 57.3, 0.05);
  ASSERT_TRUE(ci.ok());
  EXPECT_GT(ci->Width(), 0.0);
}

TEST(WilsonIntervalTest, RejectsInvalidInputs) {
  EXPECT_FALSE(WilsonInterval(0.5, 0.0, 0.05).ok());
  EXPECT_FALSE(WilsonInterval(1.5, 10.0, 0.05).ok());
}

TEST(AgrestiCoullIntervalTest, ContainsWilsonInterval) {
  // Agresti-Coull is known to contain the Wilson interval for the same data.
  for (const double mu : {0.1, 0.5, 0.9}) {
    const auto ac = *AgrestiCoullInterval(mu, 40, 0.05);
    const auto wi = *WilsonInterval(mu, 40, 0.05);
    EXPECT_LE(ac.lower, wi.lower + 1e-12) << mu;
    EXPECT_GE(ac.upper, wi.upper - 1e-12) << mu;
  }
}

/// Clopper-Pearson endpoints pinned to the last bit: any change to the
/// quantile iteration or the incomplete-beta kernel that moves one is a
/// behaviour change, however far inside the tail tolerances below.
struct ClopperPearsonGolden {
  uint64_t tau;
  uint64_t n;
  double alpha;
  Interval ci;
};

const ClopperPearsonGolden kClopperPearsonGolden[] = {
    {31, 40, 0.05, {0x1.3b2149121a77bp-1, 0x1.c8803c59225ap-1}},
    {0, 20, 0.05, {0x0p+0, 0x1.58f3a5cb64974p-3}},
    {20, 20, 0.05, {0x1.a9c3168d26da3p-1, 0x1p+0}},
    {1, 3, 0.05, {0x1.135fd64da2387p-7, 0x1.cfb7ffbe56accp-1}},
    {7, 10, 0.01, {0x1.0f3e4789702d4p-2, 0x1.ed0d63b75a08p-1}},
    {95, 100, 0.05, {0x1.c63a80a5e8f14p-1, 0x1.f7963da09a3f3p-1}},
    {480, 500, 0.05, {0x1.e0b728a5f4573p-1, 0x1.f36774f24ecb2p-1}},
    {12, 345, 0.1, {0x1.4acc617813493p-6, 0x1.c8adc579055dp-5}},
    {199, 200, 0.01, {0x1.ed481f23fba8cp-1, 0x1.fffcb70baa71ap-1}},
    {50, 100, 0.05, {0x1.97e17e8216fe6p-2, 0x1.340f40bef480dp-1}},
    {2990, 3000, 0.05, {0x1.fcdda2f0fb3a2p-1, 0x1.ff2e56d956404p-1}},
    {3, 1000, 0.05, {0x1.44962facd533cp-11, 0x1.1e7567f47f5p-7}},
};

TEST(ClopperPearsonIntervalTest, GoldenEndpointsMatchPinnedBits) {
  for (const ClopperPearsonGolden& g : kClopperPearsonGolden) {
    const auto ci = *ClopperPearsonInterval(g.tau, g.n, g.alpha);
    EXPECT_EQ(std::bit_cast<uint64_t>(ci.lower),
              std::bit_cast<uint64_t>(g.ci.lower))
        << g.tau << "/" << g.n << ": " << std::hexfloat << ci.lower;
    EXPECT_EQ(std::bit_cast<uint64_t>(ci.upper),
              std::bit_cast<uint64_t>(g.ci.upper))
        << g.tau << "/" << g.n << ": " << std::hexfloat << ci.upper;
  }
}

TEST(ClopperPearsonIntervalTest, ExactTailCoverageConditions) {
  // By construction P(Bin(n, upper) <= tau) = alpha/2 and
  // P(Bin(n, lower) >= tau) = alpha/2, for every interior count.
  for (const ClopperPearsonGolden& g : kClopperPearsonGolden) {
    if (g.tau == 0 || g.tau == g.n) continue;
    const auto ci = *ClopperPearsonInterval(g.tau, g.n, g.alpha);
    EXPECT_NEAR(*BinomialCdf(g.tau, g.n, ci.upper), g.alpha / 2.0, 1e-9)
        << g.tau << "/" << g.n;
    EXPECT_NEAR(1.0 - *BinomialCdf(g.tau - 1, g.n, ci.lower), g.alpha / 2.0,
                1e-9)
        << g.tau << "/" << g.n;
  }
}

TEST(ClopperPearsonIntervalTest, EdgeCounts) {
  const auto zero = *ClopperPearsonInterval(0, 20, 0.05);
  EXPECT_DOUBLE_EQ(zero.lower, 0.0);
  EXPECT_GT(zero.upper, 0.0);
  // tau = 0: upper = 1 - (alpha/2)^(1/n).
  EXPECT_NEAR(zero.upper, 1.0 - std::pow(0.025, 1.0 / 20.0), 1e-9);

  const auto full = *ClopperPearsonInterval(20, 20, 0.05);
  EXPECT_DOUBLE_EQ(full.upper, 1.0);
  EXPECT_NEAR(full.lower, std::pow(0.025, 1.0 / 20.0), 1e-9);
}

TEST(ClopperPearsonIntervalTest, ConservativeWiderThanWilson) {
  const auto cp = *ClopperPearsonInterval(30, 40, 0.05);
  const auto wi = *WilsonInterval(0.75, 40, 0.05);
  EXPECT_GT(cp.Width(), wi.Width());
}

TEST(ClopperPearsonIntervalTest, RejectsInvalidInputs) {
  EXPECT_FALSE(ClopperPearsonInterval(5, 0, 0.05).ok());
  EXPECT_FALSE(ClopperPearsonInterval(6, 5, 0.05).ok());
  EXPECT_FALSE(ClopperPearsonInterval(3, 5, 0.0).ok());
}

TEST(IntervalTest, MoeIsHalfWidth) {
  const Interval i{0.2, 0.5};
  EXPECT_DOUBLE_EQ(i.Width(), 0.3);
  EXPECT_DOUBLE_EQ(i.Moe(), 0.15);
  EXPECT_TRUE(i.Contains(0.35));
  EXPECT_FALSE(i.Contains(0.55));
}

}  // namespace
}  // namespace kgacc
