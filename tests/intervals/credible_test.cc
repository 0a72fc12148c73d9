#include "kgacc/intervals/credible.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reference/slsqp.h"

namespace kgacc {
namespace {

BetaDistribution MakeBeta(double a, double b) {
  return *BetaDistribution::Create(a, b);
}

/// How much log f moves across one ulp either side of `x`: the finest
/// density match any double endpoint can certify there.
double UlpLogDensitySlack(const BetaDistribution& d, double x) {
  return std::fabs(d.LogPdf(std::nextafter(x, 1.0)) -
                   d.LogPdf(std::nextafter(x, 0.0)));
}

/// Thm. 1's certificate for a unimodal posterior's HPD [l, u]: coverage
/// 1 - alpha within 1e-12, and f(l) = f(u) — to 1e-9 on log scale, plus
/// what one ulp of each endpoint resolves. When the root lies closer to a
/// boundary than any double can resolve (a or b -> 1+), the endpoint sits
/// on that boundary instead, where the density is still no lower than at
/// the other end: l = 0 with f(0+) >= f(u), or u = 1 with f(1-) >= f(l).
void ExpectHpdCertificate(const BetaDistribution& d, double alpha,
                          const Interval& hpd) {
  const double l = hpd.lower;
  const double u = hpd.upper;
  SCOPED_TRACE(::testing::Message() << "a=" << d.a() << " b=" << d.b()
                                    << " alpha=" << alpha << " l=" << l
                                    << " u=" << u);
  EXPECT_NEAR(d.Cdf(u) - d.Cdf(l), 1.0 - alpha, 1e-12);
  if (l == 0.0) {
    EXPECT_GE(d.LogPdf(1e-12 * u), d.LogPdf(u) - 1e-9);
  } else if (u == 1.0) {
    EXPECT_GE(d.LogPdf(1.0 - 1e-12 * (1.0 - l)), d.LogPdf(l) - 1e-9);
  } else {
    EXPECT_LE(std::fabs(d.LogPdf(l) - d.LogPdf(u)),
              1e-9 + UlpLogDensitySlack(d, l) + UlpLogDensitySlack(d, u));
  }
}

/// Bitwise equality, printed as hex floats on failure.
void ExpectSameBits(const Interval& got, const Interval& want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got.lower),
            std::bit_cast<uint64_t>(want.lower))
      << std::hexfloat << got.lower << " vs " << want.lower;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.upper),
            std::bit_cast<uint64_t>(want.upper))
      << std::hexfloat << got.upper << " vs " << want.upper;
}

/// HPD, warm-started HPD, 1-D-root HPD and ET endpoints pinned to the last
/// bit. The warm start is the ET interval of Beta(a + 1, b), the posterior
/// one more correct label away. A reordered expression anywhere on these
/// paths (incomplete-beta kernel, Newton system, quantile iteration, 1-D
/// fallback) moves one of them, where the 1e-9 tolerances elsewhere would
/// let it through. The last three rows are near-limiting (Newton falls back
/// to the 1-D root) and symmetric (Thm. 3: HPD == ET).
struct GoldenPosterior {
  double a;
  double b;
  double alpha;
  Interval cold;
  Interval warm;
  Interval root;
  Interval et;
};

const GoldenPosterior kGoldenPosteriors[] = {
    {2.5, 1.7, 0.05,
     {0x1.9c5e3a2d21654p-3, 0x1.f201fbc991b35p-1},
     {0x1.9c5e3a2d2586ap-3, 0x1.f201fbc992074p-1},
     {0x1.9c5e3a2d2164cp-3, 0x1.f201fbc991b36p-1},
     {0x1.4c60e46f951abp-3, 0x1.e46c2a1515d9ep-1}},
    {10.0, 4.0, 0.05,
     {0x1.f1d8fdb6d8512p-2, 0x1.d9dda419d3d76p-1},
     {0x1.f1d8fdb6d588p-2, 0x1.d9dda419d4652p-1},
     {0x1.f1d8fdb6d5882p-2, 0x1.d9dda419d4652p-1},
     {0x1.d8f40bb82cb3bp-2, 0x1.d172e1cd8bfeep-1}},
    {28.0, 4.0, 0.05,
     {0x1.85e485d0396adp-1, 0x1.f2aa816da5a66p-1},
     {0x1.85e485d0396aep-1, 0x1.f2aa816da5a66p-1},
     {0x1.85e485d0396adp-1, 0x1.f2aa816da5a66p-1},
     {0x1.7c23d6f7f67fep-1, 0x1.ed69de5a04881p-1}},
    {7.0, 3.0, 0.1,
     {0x1.f07b5fb0791b9p-2, 0x1.da25f92519d61p-1},
     {0x1.f07b5fb0771b7p-2, 0x1.da25f9251a603p-1},
     {0x1.f07b5fb0771b8p-2, 0x1.da25f9251a604p-1},
     {0x1.cd2abd4b66014p-2, 0x1.cdf42131faee1p-1}},
    {170.5, 30.5, 0.05,
     {0x1.98a6c03877ffbp-1, 0x1.caf6c7047dcf4p-1},
     {0x1.98a6c03877ffbp-1, 0x1.caf6c7047dcf4p-1},
     {0x1.98a6c03877ff9p-1, 0x1.caf6c7047dcf5p-1},
     {0x1.975dcec229066p-1, 0x1.c9e4afa4a1e81p-1}},
    {1.5, 40.0, 0.05,
     {0x1.8fb5f92464486p-15, 0x1.7b1919900f246p-4},
     {0x1.8fb5f92464344p-15, 0x1.7b1919900f14fp-4},
     {0x1.8fb5f92464476p-15, 0x1.7b1919900f248p-4},
     {0x1.5ee7798661316p-9, 0x1.c11fb82e0c4ap-4}},
    {40.0, 1.5, 0.01,
     {0x1.bcb0b7df7fbe1p-1, 0x1.ffffb5db43bc1p-1},
     {0x1.bcb0b7df7fb9cp-1, 0x1.ffffb5db43bc1p-1},
     {0x1.bcb0b7df7fb99p-1, 0x1.ffffb5db43bc1p-1},
     {0x1.b4843811f570ap-1, 0x1.ff8b44e4c7a48p-1}},
    {950.5, 49.5, 0.05,
     {0x1.dfaf12eddff57p-1, 0x1.ed5df3ac9ad1fp-1},
     {0x1.dfaf12eddff57p-1, 0x1.ed5df3ac9ad2p-1},
     {0x1.dfaf12eddff57p-1, 0x1.ed5df3ac9ad2p-1},
     {0x1.df59fe507e1ep-1, 0x1.ed166fa6af803p-1}},
    {4000.5, 12.5, 0.01,
     {0x1.fd1c52bdcb86cp-1, 0x1.ff63604524923p-1},
     {0x1.fd1c52bdcb86cp-1, 0x1.ff63604524922p-1},
     {0x1.fd1c52bdcb86ep-1, 0x1.ff63604524922p-1},
     {0x1.fd02936483d8fp-1, 0x1.ff540718d731ep-1}},
    {25.5, 8.5, 0.1,
     {0x1.43ef2b00b728bp-1, 0x1.bdace968e12f4p-1},
     {0x1.43ef2b00b728ap-1, 0x1.bdace968e12f5p-1},
     {0x1.43ef2b00b728bp-1, 0x1.bdace968e12f4p-1},
     {0x1.3e334bfdf7773p-1, 0x1.b9208576925b3p-1}},
    {1.02, 60.0, 0.05,
     {0x0p+0, 0x1.93ec781e91a6p-5},
     {0x0p+0, 0x1.93ec781e91a6p-5},
     {0x0p+0, 0x1.93ec781e91a6p-5},
     {0x1.dfee2cb2d37acp-12, 0x1.edc9aedef204p-5}},
    {60.0, 1.01, 0.05,
     {0x1.e6e8bf504cf43p-1, 0x1p+0},
     {0x1.e6e8bf504cf43p-1, 0x1p+0},
     {0x1.e6e8bf504cf43p-1, 0x1p+0},
     {0x1.e14dbd539bd49p-1, 0x1.ffc6621b35dddp-1}},
    {3.2, 3.2, 0.05,
     {0x1.3da544aedc191p-3, 0x1.b096aed448f9bp-1},
     {0x1.3da544aedc194p-3, 0x1.b096aed448f9cp-1},
     {0x1.3da544aedc193p-3, 0x1.b096aed448f9bp-1},
     {0x1.3da544aedc191p-3, 0x1.b096aed448f9bp-1}},
};

TEST(EqualTailedTest, QuantileDefinition) {
  const auto d = MakeBeta(9.0, 3.0);
  const auto et = *EqualTailedInterval(d, 0.05);
  EXPECT_NEAR(d.Cdf(et.lower), 0.025, 1e-10);
  EXPECT_NEAR(d.Cdf(et.upper), 0.975, 1e-10);
}

TEST(EqualTailedTest, CoversExactlyOneMinusAlpha) {
  for (const double alpha : {0.01, 0.05, 0.10, 0.25}) {
    const auto d = MakeBeta(25.0, 8.0);
    const auto et = *EqualTailedInterval(d, alpha);
    EXPECT_NEAR(d.Cdf(et.upper) - d.Cdf(et.lower), 1.0 - alpha, 1e-10)
        << alpha;
  }
}

TEST(EqualTailedTest, RejectsBadAlpha) {
  const auto d = MakeBeta(2.0, 2.0);
  EXPECT_FALSE(EqualTailedInterval(d, 0.0).ok());
  EXPECT_FALSE(EqualTailedInterval(d, 1.0).ok());
}

TEST(HpdTest, SatisfiesCoverageConstraint) {
  const auto d = MakeBeta(28.0, 4.0);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_NEAR(d.Cdf(hpd.interval.upper) - d.Cdf(hpd.interval.lower), 0.95,
              1e-7);
}

TEST(HpdTest, EqualDensityAtInteriorEndpoints) {
  // Theorem 1's first-order condition: f(l) = f(u).
  const auto d = MakeBeta(10.0, 4.0);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.shape, BetaShape::kUnimodal);
  EXPECT_NEAR(d.Pdf(hpd.interval.lower), d.Pdf(hpd.interval.upper), 1e-4);
}

TEST(HpdTest, ContainsTheMode) {
  const auto d = MakeBeta(7.0, 3.0);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_TRUE(hpd.interval.Contains(d.Mode()));
}

TEST(HpdTest, NeverWiderThanEqualTailed) {
  // Theorem 1: HPD is the smallest 1-alpha interval.
  for (const double a : {1.5, 3.0, 9.0, 30.0}) {
    for (const double b : {1.5, 4.0, 12.0}) {
      const auto d = MakeBeta(a, b);
      const auto hpd = *HpdInterval(d, 0.05);
      const auto et = *EqualTailedInterval(d, 0.05);
      EXPECT_LE(hpd.interval.Width(), et.Width() + 1e-8)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(HpdTest, SymmetricPosteriorMatchesEqualTailed) {
  // Theorem 3: for a symmetric unimodal posterior, HPD == ET.
  for (const double a : {2.0, 5.0, 40.0}) {
    const auto d = MakeBeta(a, a);
    const auto hpd = *HpdInterval(d, 0.05);
    const auto et = *EqualTailedInterval(d, 0.05);
    EXPECT_NEAR(hpd.interval.lower, et.lower, 1e-6) << a;
    EXPECT_NEAR(hpd.interval.upper, et.upper, 1e-6) << a;
  }
}

TEST(HpdTest, SkewedPosteriorShiftsTowardMode) {
  // For a right-skewed-mass posterior (a >> b) the HPD sits closer to 1
  // than the ET interval on both ends.
  const auto d = MakeBeta(28.0, 2.0);
  const auto hpd = *HpdInterval(d, 0.05);
  const auto et = *EqualTailedInterval(d, 0.05);
  EXPECT_GT(hpd.interval.lower, et.lower);
  EXPECT_GT(hpd.interval.upper, et.upper);
  EXPECT_LT(hpd.interval.Width(), et.Width());
}

TEST(HpdTest, DecreasingLimitingCase) {
  // tau = 0 under an uninformative prior: Beta(a<=1, b+n) decreasing;
  // Eq. 11 gives [0, qBeta(1-alpha)].
  const auto d = MakeBeta(0.5, 30.5);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.shape, BetaShape::kDecreasing);
  EXPECT_DOUBLE_EQ(hpd.interval.lower, 0.0);
  EXPECT_NEAR(hpd.interval.upper, *d.Quantile(0.95), 1e-12);
  EXPECT_EQ(hpd.solver_iterations, 0);
}

TEST(HpdTest, IncreasingLimitingCase) {
  // tau = n: Beta(a+n, b<=1) increasing; Eq. 10 gives [qBeta(alpha), 1].
  const auto d = MakeBeta(30.5, 0.5);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.shape, BetaShape::kIncreasing);
  EXPECT_DOUBLE_EQ(hpd.interval.upper, 1.0);
  EXPECT_NEAR(hpd.interval.lower, *d.Quantile(0.05), 1e-12);
}

TEST(HpdTest, LimitingCaseIsShorterThanEqualTailed) {
  // Corollary 1: the one-sided interval beats the two-sided ET under the
  // monotone posterior.
  const auto d = MakeBeta(31.0 / 3.0 + 20.0, 1.0 / 3.0);
  const auto hpd = *HpdInterval(d, 0.05);
  const auto et = *EqualTailedInterval(d, 0.05);
  EXPECT_LT(hpd.interval.Width(), et.Width());
}

TEST(HpdTest, UShapedFallsBackToEqualTailed) {
  const auto d = MakeBeta(0.5, 0.5);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.shape, BetaShape::kUShaped);
  const auto et = *EqualTailedInterval(d, 0.05);
  EXPECT_DOUBLE_EQ(hpd.interval.lower, et.lower);
  EXPECT_DOUBLE_EQ(hpd.interval.upper, et.upper);
}

TEST(HpdTest, SolversAgree) {
  // The SQP reference and the 1-D root must find the same interval.
  for (const double a : {2.0, 6.5, 28.0, 170.0}) {
    for (const double b : {1.7, 5.0, 30.0}) {
      const auto d = MakeBeta(a, b);
      const auto sqp = *HpdIntervalSqp(d, 0.05);
      const auto oned = *HpdIntervalByRoot(d, 0.05);
      EXPECT_EQ(oned.path, HpdPath::kOneDim);
      EXPECT_NEAR(sqp.interval.lower, oned.interval.lower, 1e-8)
          << "a=" << a << " b=" << b;
      EXPECT_NEAR(sqp.interval.upper, oned.interval.upper, 1e-8)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(HpdTest, ColdStartReachesSameSolution) {
  // Seeded at ET (no start) or at a central interval about the mode.
  const auto d = MakeBeta(12.0, 5.0);
  const Interval cold{d.Mode() - 0.25, d.Mode() + 0.25};
  const auto w = *HpdInterval(d, 0.05);
  const auto c = *HpdInterval(d, 0.05, &cold);
  EXPECT_NEAR(w.interval.lower, c.interval.lower, 1e-5);
  EXPECT_NEAR(w.interval.upper, c.interval.upper, 1e-5);
}

TEST(HpdTest, GoldenEndpointsMatchPinnedBits) {
  for (const GoldenPosterior& g : kGoldenPosteriors) {
    SCOPED_TRACE(::testing::Message() << "a=" << g.a << " b=" << g.b
                                      << " alpha=" << g.alpha);
    const auto d = MakeBeta(g.a, g.b);
    const Interval start =
        *EqualTailedInterval(MakeBeta(g.a + 1.0, g.b), g.alpha);
    const Interval cold = HpdInterval(d, g.alpha)->interval;
    ExpectSameBits(cold, g.cold);
    ExpectSameBits(HpdInterval(d, g.alpha, &start)->interval, g.warm);
    ExpectSameBits(HpdIntervalByRoot(d, g.alpha)->interval, g.root);
    ExpectSameBits(*EqualTailedInterval(d, g.alpha), g.et);
    ExpectHpdCertificate(d, g.alpha, cold);
  }
}

TEST(HpdTest, RejectsBadAlpha) {
  const auto d = MakeBeta(3.0, 3.0);
  EXPECT_FALSE(HpdInterval(d, -0.1).ok());
  EXPECT_FALSE(HpdInterval(d, 1.0).ok());
}

/// Parameterized sweep of the minimality property: no interval of the same
/// coverage may be shorter. We verify against a fine grid of alternative
/// intervals built from the CDF.
class HpdMinimality
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(HpdMinimality, NoEqualCoverageIntervalIsShorter) {
  const auto [a, b, alpha] = GetParam();
  const auto d = MakeBeta(a, b);
  const auto hpd = *HpdInterval(d, alpha);
  // Slide the lower CDF mass point across [0, alpha] and compare widths.
  for (int i = 0; i <= 40; ++i) {
    const double p_lo = alpha * i / 40.0;
    const double l = *d.Quantile(p_lo);
    const double u = *d.Quantile(std::min(p_lo + 1.0 - alpha, 1.0));
    EXPECT_GE(u - l, hpd.interval.Width() - 1e-6)
        << "a=" << a << " b=" << b << " alpha=" << alpha << " p_lo=" << p_lo;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Posteriors, HpdMinimality,
    ::testing::Values(std::make_tuple(5.0, 2.0, 0.05),
                      std::make_tuple(2.0, 5.0, 0.05),
                      std::make_tuple(28.0, 4.0, 0.05),
                      std::make_tuple(28.0, 4.0, 0.01),
                      std::make_tuple(28.0, 4.0, 0.10),
                      std::make_tuple(170.0, 31.0, 0.05),
                      std::make_tuple(1.5, 1.5, 0.05),
                      std::make_tuple(0.5, 12.0, 0.05),   // limiting case
                      std::make_tuple(12.0, 0.5, 0.05),   // limiting case
                      std::make_tuple(350.0, 300.0, 0.01),
                      // Near-limiting: the fallback root's territory.
                      std::make_tuple(1.001, 20.0, 0.05),
                      std::make_tuple(20.0, 1.001, 0.05),
                      std::make_tuple(1.005, 300.0, 0.01),
                      std::make_tuple(1.01, 1.5, 0.1),
                      std::make_tuple(5000.0, 1.01, 0.05)));

TEST(HpdNewtonTest, NewtonIsThePrimaryUnimodalPath) {
  const auto d = MakeBeta(28.0, 4.0);
  const auto hpd = *HpdInterval(d, 0.05);
  EXPECT_EQ(hpd.path, HpdPath::kNewton);
  EXPECT_GT(hpd.solver_iterations, 0);
  EXPECT_GT(hpd.cdf_evals, 0);
  EXPECT_GT(hpd.pdf_evals, 0);
  // Convergence certificate: the reported residuals meet the solver's
  // advertised tolerances and independently verify on the endpoints.
  EXPECT_LE(std::fabs(hpd.kkt_coverage_residual), 1e-12);
  EXPECT_LE(std::fabs(hpd.kkt_density_residual), 1e-9);
  EXPECT_NEAR(d.Cdf(hpd.interval.upper) - d.Cdf(hpd.interval.lower), 0.95,
              1e-11);
  EXPECT_NEAR(d.LogPdf(hpd.interval.lower), d.LogPdf(hpd.interval.upper),
              1e-8);
}

TEST(HpdNewtonTest, UsesFewerBetaEvaluationsThanSqp) {
  // The specialization's point: ~4-6 Newton iterations of 2 CDF + 2 PDF
  // evaluations versus the SQP's ~20-70 constraint/gradient evaluations.
  // Every single solve must be cheaper, and in aggregate (the hot-path
  // mix of shapes and levels) Newton must cost under half the SQP.
  int newton_total = 0;
  int sqp_total = 0;
  for (const double a : {6.5, 28.0, 170.0, 900.0, 3000.0}) {
    for (const double alpha : {0.01, 0.05, 0.1}) {
      const auto d = MakeBeta(a, 0.2 * a + 1.0);
      const auto newton = *HpdInterval(d, alpha);
      const auto sqp = *HpdIntervalSqp(d, alpha);
      ASSERT_EQ(newton.path, HpdPath::kNewton) << a;
      const int newton_evals = newton.cdf_evals + newton.pdf_evals;
      const int sqp_evals = sqp.cdf_evals + sqp.pdf_evals;
      EXPECT_LT(newton_evals, sqp_evals) << "a=" << a << " alpha=" << alpha;
      newton_total += newton_evals;
      sqp_total += sqp_evals;
    }
  }
  EXPECT_LT(2 * newton_total, sqp_total);
}

/// Cross-check grid of the Newton path against both references across
/// near-degenerate (a or b near 1), central, skewed, and extreme-peaked
/// posteriors, including the limiting shapes (a or b <= 1) where all
/// paths must agree on the closed forms. Every unimodal cell's Newton and
/// root intervals also meet Thm. 1's certificate. On the cells where the
/// SQP reference (no fallback) does not converge — one shape 5000, the
/// other <= 5 — the certificate is the only check.
TEST(HpdNewtonTest, GridCrossCheckAgainstSqpAndOneDim) {
  const double shapes[] = {0.5, 1.5, 2.0, 5.0, 20.0, 80.0,
                           300.0, 1200.0, 5000.0};
  int sqp_unconverged = 0;
  for (const double a : shapes) {
    for (const double b : shapes) {
      for (const double alpha : {0.01, 0.05, 0.1}) {
        const auto d = MakeBeta(a, b);
        const auto hpd = HpdInterval(d, alpha);
        ASSERT_TRUE(hpd.ok()) << "a=" << a << " b=" << b << " alpha=" << alpha;
        const auto sqp = HpdIntervalSqp(d, alpha);
        const auto oned = HpdIntervalByRoot(d, alpha);
        ASSERT_TRUE(oned.ok()) << "a=" << a << " b=" << b;
        // Newton endpoints within 1e-9 of each reference.
        std::vector<Interval> references = {oned->interval};
        if (sqp.ok()) references.push_back(sqp->interval);
        for (const Interval& other : references) {
          EXPECT_NEAR(hpd->interval.lower, other.lower, 1e-9)
              << "a=" << a << " b=" << b << " alpha=" << alpha;
          EXPECT_NEAR(hpd->interval.upper, other.upper, 1e-9)
              << "a=" << a << " b=" << b << " alpha=" << alpha;
        }
        if (d.Shape() != BetaShape::kUnimodal) {
          ASSERT_TRUE(sqp.ok()) << "a=" << a << " b=" << b;
          continue;
        }
        EXPECT_EQ(hpd->path, HpdPath::kNewton)
            << "a=" << a << " b=" << b << " alpha=" << alpha;
        EXPECT_EQ(oned->path, HpdPath::kOneDim);
        ExpectHpdCertificate(d, alpha, hpd->interval);
        ExpectHpdCertificate(d, alpha, oned->interval);
        if (!sqp.ok()) ++sqp_unconverged;
      }
    }
  }
  EXPECT_LE(sqp_unconverged, 12);
}

TEST(HpdFallbackTest, NearLimitingPosteriorsLeaveNewtonForTheRoot) {
  // A shape parameter just above 1 puts the HPD endpoint within a few ulps
  // of (or on) the boundary, where Newton's box safeguard pins the iterate:
  // real inputs, not a knob, send these solves to the 1-D root.
  for (const auto& [a, b] : {std::pair{1.001, 20.0}, std::pair{20.0, 1.001}}) {
    for (const double alpha : {0.01, 0.05, 0.1}) {
      const auto d = MakeBeta(a, b);
      const auto hpd = HpdInterval(d, alpha);
      ASSERT_TRUE(hpd.ok()) << "a=" << a << " b=" << b;
      EXPECT_EQ(hpd->path, HpdPath::kOneDim) << "a=" << a << " b=" << b;
      // The wasted Newton attempt is part of the solve's cost.
      EXPECT_GT(hpd->pdf_evals, 0);
      EXPECT_GT(hpd->quantile_evals, 0);
      ExpectHpdCertificate(d, alpha, hpd->interval);
    }
  }
}

TEST(HpdFallbackTest, NearLimitingGridMeetsTheCertificate) {
  // a or b in {1.001, 1.005, 1.01} against the full range of the other
  // shape: the 1-D root on its own, and the default path (which leaves
  // Newton for the root on most of these cells).
  const double near_one[] = {1.001, 1.005, 1.01};
  const double others[] = {1.001, 1.01, 1.5, 2.0, 5.0, 20.0,
                           80.0, 300.0, 1200.0, 5000.0};
  ResetThreadHpdStats();
  for (const double x : near_one) {
    for (const double y : others) {
      for (const auto& [a, b] : {std::pair{x, y}, std::pair{y, x}}) {
        for (const double alpha : {0.01, 0.05, 0.1}) {
          const auto d = MakeBeta(a, b);
          const auto oned = HpdIntervalByRoot(d, alpha);
          ASSERT_TRUE(oned.ok()) << "a=" << a << " b=" << b;
          EXPECT_EQ(oned->path, HpdPath::kOneDim);
          ExpectHpdCertificate(d, alpha, oned->interval);
          const auto hpd = HpdInterval(d, alpha);
          ASSERT_TRUE(hpd.ok()) << "a=" << a << " b=" << b;
          ExpectHpdCertificate(d, alpha, hpd->interval);
        }
      }
    }
  }
  const HpdSolveStats stats = ThreadHpdStatsSnapshot();
  EXPECT_GT(stats.onedim.solves, stats.newton.solves);
  EXPECT_EQ(stats.slsqp.solves + stats.slsqp_fallback.solves, 0u);
  ResetThreadHpdStats();
}

TEST(HpdNewtonTest, SqpIsThePureReferenceWithoutFallback) {
  const auto d = MakeBeta(12.0, 5.0);
  const auto hpd = *HpdIntervalSqp(d, 0.05);
  EXPECT_GT(hpd.iterations, 0);
  EXPECT_NEAR(d.Cdf(hpd.interval.upper) - d.Cdf(hpd.interval.lower), 0.95,
              1e-9);

  // Where the SQP does not converge it reports an error: nothing silently
  // substitutes another solver's interval.
  const auto peaked = MakeBeta(5000.0, 1.5);
  int failures = 0;
  for (const double alpha : {0.01, 0.05, 0.1}) {
    if (!HpdIntervalSqp(peaked, alpha).ok()) ++failures;
    EXPECT_TRUE(HpdInterval(peaked, alpha).ok());
  }
  EXPECT_GT(failures, 0);
}

TEST(HpdNewtonTest, ThreadStatsAttributeSolvesToPaths) {
  ResetThreadHpdStats();
  const auto d = MakeBeta(28.0, 4.0);
  ASSERT_TRUE(HpdInterval(d, 0.05).ok());
  const auto sqp = HpdIntervalSqp(d, 0.05);  // The reference tallies nothing.
  ASSERT_TRUE(sqp.ok());
  ASSERT_TRUE(HpdInterval(MakeBeta(0.5, 30.5), 0.05).ok());  // Limiting.
  ASSERT_TRUE(HpdInterval(MakeBeta(1.001, 20.0), 0.05).ok());  // Fallback.
  ASSERT_TRUE(HpdIntervalByRoot(d, 0.05).ok());
  const HpdSolveStats stats = ThreadHpdStatsSnapshot();
  EXPECT_EQ(stats.newton.solves, 1u);
  EXPECT_EQ(stats.limiting.solves, 1u);
  EXPECT_EQ(stats.onedim.solves, 2u);
  EXPECT_EQ(stats.slsqp.solves + stats.slsqp_fallback.solves, 0u);
  EXPECT_EQ(stats.total_solves(), 4u);
  EXPECT_GT(stats.newton.cdf_evals, 0u);
  EXPECT_LT(stats.newton.cdf_evals + stats.newton.pdf_evals,
            static_cast<uint64_t>(sqp->cdf_evals + sqp->pdf_evals));
  ResetThreadHpdStats();
  EXPECT_EQ(ThreadHpdStatsSnapshot().total_solves(), 0u);
}

TEST(HpdOneDimTest, TinyAlphaKeepsABoundedBracket) {
  // A lower quantile near the origin must still leave the root a usable
  // bracket.
  const auto d = MakeBeta(1.2, 2000.0);
  const auto hpd = HpdIntervalByRoot(d, 1e-6);
  ASSERT_TRUE(hpd.ok());
  EXPECT_GT(hpd->interval.Width(), 0.0);
  EXPECT_NEAR(d.Cdf(hpd->interval.upper) - d.Cdf(hpd->interval.lower),
              1.0 - 1e-6, 1e-7);
  const auto newton = HpdInterval(d, 1e-6);
  ASSERT_TRUE(newton.ok());
  EXPECT_NEAR(hpd->interval.upper, newton->interval.upper, 1e-9);
}

TEST(HpdOneDimTest, WidePosteriorFindsARealInterval) {
  // Near-flat posterior at small alpha: feasible widths approach 1 and the
  // log-density gap stays small across the whole bracket. The solve must
  // return a real interval whose width beats 1 and satisfies coverage.
  const auto d = MakeBeta(1.05, 1.1);
  const auto hpd = HpdIntervalByRoot(d, 0.005);
  ASSERT_TRUE(hpd.ok());
  EXPECT_LT(hpd->interval.Width(), 1.0);
  EXPECT_NEAR(d.Cdf(hpd->interval.upper) - d.Cdf(hpd->interval.lower), 0.995,
              1e-6);
  ExpectHpdCertificate(d, 0.005, hpd->interval);
}

}  // namespace
}  // namespace kgacc
