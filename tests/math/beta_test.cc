#include "kgacc/math/beta.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "kgacc/math/special.h"

namespace kgacc {
namespace {

TEST(BetaDistributionTest, RejectsBadParameters) {
  EXPECT_FALSE(BetaDistribution::Create(0.0, 1.0).ok());
  EXPECT_FALSE(BetaDistribution::Create(1.0, -2.0).ok());
  EXPECT_FALSE(BetaDistribution::Create(std::nan(""), 1.0).ok());
  EXPECT_FALSE(
      BetaDistribution::Create(std::numeric_limits<double>::infinity(), 1.0)
          .ok());
}

TEST(BetaDistributionTest, MeanAndVariance) {
  const auto d = *BetaDistribution::Create(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.25);
  EXPECT_NEAR(d.Variance(), 2.0 * 6.0 / (64.0 * 9.0), 1e-15);
}

TEST(BetaDistributionTest, ModeOfUnimodal) {
  const auto d = *BetaDistribution::Create(3.0, 5.0);
  EXPECT_DOUBLE_EQ(d.Mode(), 2.0 / 6.0);
}

TEST(BetaDistributionTest, ShapeClassification) {
  EXPECT_EQ((*BetaDistribution::Create(2.0, 2.0)).Shape(),
            BetaShape::kUnimodal);
  EXPECT_EQ((*BetaDistribution::Create(0.5, 2.0)).Shape(),
            BetaShape::kDecreasing);
  EXPECT_EQ((*BetaDistribution::Create(1.0, 2.0)).Shape(),
            BetaShape::kDecreasing);
  EXPECT_EQ((*BetaDistribution::Create(2.0, 0.5)).Shape(),
            BetaShape::kIncreasing);
  EXPECT_EQ((*BetaDistribution::Create(2.0, 1.0)).Shape(),
            BetaShape::kIncreasing);
  EXPECT_EQ((*BetaDistribution::Create(0.5, 0.5)).Shape(),
            BetaShape::kUShaped);
  EXPECT_EQ((*BetaDistribution::Create(1.0, 1.0)).Shape(),
            BetaShape::kUShaped);
}

TEST(BetaDistributionTest, PdfMatchesClosedFormBeta22) {
  // Beta(2,2): f(x) = 6 x (1-x).
  const auto d = *BetaDistribution::Create(2.0, 2.0);
  for (double x = 0.1; x < 1.0; x += 0.1) {
    EXPECT_NEAR(d.Pdf(x), 6.0 * x * (1.0 - x), 1e-12) << x;
  }
}

TEST(BetaDistributionTest, PdfOutsideSupportIsZero) {
  const auto d = *BetaDistribution::Create(2.0, 2.0);
  EXPECT_DOUBLE_EQ(d.Pdf(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(d.Pdf(1.1), 0.0);
  EXPECT_TRUE(std::isinf(d.LogPdf(-0.1)));
}

TEST(BetaDistributionTest, PdfEdgeBehaviour) {
  // a > 1: density vanishes at 0; a < 1: density diverges at 0.
  EXPECT_DOUBLE_EQ((*BetaDistribution::Create(2.0, 2.0)).Pdf(0.0), 0.0);
  EXPECT_TRUE(std::isinf((*BetaDistribution::Create(0.5, 2.0)).Pdf(0.0)));
  // Uniform: density 1 everywhere including edges.
  EXPECT_NEAR((*BetaDistribution::Create(1.0, 1.0)).Pdf(0.0), 1.0, 1e-12);
  EXPECT_NEAR((*BetaDistribution::Create(1.0, 1.0)).Pdf(1.0), 1.0, 1e-12);
}

TEST(BetaDistributionTest, PdfIntegratesToOne) {
  // Trapezoid integration as an independent check of the normalization.
  const auto d = *BetaDistribution::Create(3.5, 2.2);
  const int steps = 20000;
  double integral = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double x0 = static_cast<double>(i) / steps;
    const double x1 = static_cast<double>(i + 1) / steps;
    integral += 0.5 * (d.Pdf(x0) + d.Pdf(x1)) * (x1 - x0);
  }
  EXPECT_NEAR(integral, 1.0, 1e-6);
}

TEST(BetaDistributionTest, CdfMatchesClosedFormBeta22) {
  // Beta(2,2): F(x) = 3x^2 - 2x^3.
  const auto d = *BetaDistribution::Create(2.0, 2.0);
  for (double x = 0.1; x < 1.0; x += 0.1) {
    EXPECT_NEAR(d.Cdf(x), 3.0 * x * x - 2.0 * x * x * x, 1e-12) << x;
  }
}

TEST(BetaDistributionTest, CdfClampedOutsideSupport) {
  const auto d = *BetaDistribution::Create(2.0, 2.0);
  EXPECT_DOUBLE_EQ(d.Cdf(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(2.0), 1.0);
}

TEST(BetaDistributionTest, CdfIsDerivativeConsistentWithPdf) {
  const auto d = *BetaDistribution::Create(4.0, 7.0);
  const double h = 1e-6;
  for (double x = 0.1; x < 1.0; x += 0.1) {
    const double numeric = (d.Cdf(x + h) - d.Cdf(x - h)) / (2.0 * h);
    EXPECT_NEAR(numeric, d.Pdf(x), 1e-5) << x;
  }
}

TEST(BetaDistributionTest, SharedLogPointMatchesPlainOverloadsBitForBit) {
  const double shapes[][2] = {{0.5, 0.5},   {0.7, 3.0},       {2.0, 2.0},
                              {28.0, 4.0},  {170.5, 30.5},    {4000.5, 12.5},
                              {1.02, 60.0}, {5000.0, 5000.0}};
  const double xs[] = {1e-300, 1e-12, 1e-3, 0.25, 0.5, 0.75, 0.999,
                       1.0 - 1e-12, std::nextafter(1.0, 0.0)};
  for (const auto& [a, b] : shapes) {
    const auto d = *BetaDistribution::Create(a, b);
    const double log_beta = LogBeta(a, b);
    for (const double x : xs) {
      SCOPED_TRACE(::testing::Message() << "a=" << a << " b=" << b
                                        << " x=" << x);
      const BetaPoint point(x);
      EXPECT_EQ(std::bit_cast<uint64_t>(point.log_x),
                std::bit_cast<uint64_t>(std::log(x)));
      EXPECT_EQ(std::bit_cast<uint64_t>(point.log1m_x),
                std::bit_cast<uint64_t>(std::log1p(-x)));

      ResetThreadBetaKernelStats();
      const double cdf = d.Cdf(x);
      EXPECT_EQ(ThreadBetaKernelStatsSnapshot().calls, 1u);
      EXPECT_EQ(std::bit_cast<uint64_t>(cdf),
                std::bit_cast<uint64_t>(*RegularizedIncompleteBeta(x, a, b)));

      const double log_pdf = d.LogPdf(point);
      EXPECT_EQ(std::bit_cast<uint64_t>(log_pdf),
                std::bit_cast<uint64_t>(d.LogPdf(x)));
      EXPECT_EQ(std::bit_cast<uint64_t>(log_pdf),
                std::bit_cast<uint64_t>((a - 1.0) * std::log(x) +
                                        (b - 1.0) * std::log1p(-x) -
                                        log_beta));
      EXPECT_EQ(std::bit_cast<uint64_t>(d.Pdf(point)),
                std::bit_cast<uint64_t>(d.Pdf(x)));
    }
  }
}

TEST(BetaDistributionTest, CdfPairMatchesTwoCdfCallsBitForBit) {
  const double shapes[][2] = {{0.5, 0.5}, {2.0, 2.0}, {170.5, 30.5},
                              {4000.5, 12.5}, {5000.0, 5000.0}};
  const double xs[] = {1e-300, 1e-3, 0.25, 0.5, 0.75, 0.999, 1.0 - 1e-12};
  for (const auto& [a, b] : shapes) {
    const auto d = *BetaDistribution::Create(a, b);
    for (const double l : xs) {
      for (const double u : xs) {
        SCOPED_TRACE(::testing::Message() << "a=" << a << " b=" << b
                                          << " l=" << l << " u=" << u);
        const BetaPoint pl(l);
        const BetaPoint pu(u);
        ResetThreadBetaKernelStats();
        const double want_l = d.Cdf(l);
        const double want_u = d.Cdf(u);
        const BetaKernelStats scalar = ThreadBetaKernelStatsSnapshot();
        ResetThreadBetaKernelStats();
        double got_l = -1.0;
        double got_u = -1.0;
        d.CdfPair(pl, pu, &got_l, &got_u);
        const BetaKernelStats pair = ThreadBetaKernelStatsSnapshot();
        EXPECT_EQ(std::bit_cast<uint64_t>(got_l),
                  std::bit_cast<uint64_t>(want_l));
        EXPECT_EQ(std::bit_cast<uint64_t>(got_u),
                  std::bit_cast<uint64_t>(want_u));
        EXPECT_EQ(pair.calls, 2u);
        EXPECT_EQ(pair.calls, scalar.calls);
        EXPECT_EQ(pair.cf_iterations, scalar.cf_iterations);
      }
    }
  }
}

TEST(BetaDistributionTest, QuantileRoundTrip) {
  const auto d = *BetaDistribution::Create(30.33, 2.33);
  for (const double p : {0.01, 0.05, 0.5, 0.95, 0.99}) {
    EXPECT_NEAR(d.Cdf(*d.Quantile(p)), p, 1e-10) << p;
  }
}

TEST(BetaDistributionTest, QuantileRejectsOutOfRange) {
  const auto d = *BetaDistribution::Create(2.0, 2.0);
  EXPECT_FALSE(d.Quantile(-0.1).ok());
  EXPECT_FALSE(d.Quantile(1.5).ok());
}

}  // namespace
}  // namespace kgacc
