#include "kgacc/math/special.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(LogBetaTest, MatchesClosedFormsForIntegers) {
  // B(1,1) = 1, B(2,3) = 1/12, B(5,5) = 1/630.
  EXPECT_NEAR(LogBeta(1, 1), 0.0, 1e-14);
  EXPECT_NEAR(LogBeta(2, 3), std::log(1.0 / 12.0), 1e-12);
  EXPECT_NEAR(LogBeta(5, 5), std::log(1.0 / 630.0), 1e-12);
}

TEST(LogBetaTest, SymmetricInArguments) {
  EXPECT_DOUBLE_EQ(LogBeta(2.5, 7.1), LogBeta(7.1, 2.5));
}

TEST(LogBetaTest, HalfHalfIsPi) {
  // B(1/2, 1/2) = pi.
  EXPECT_NEAR(LogBeta(0.5, 0.5), std::log(M_PI), 1e-12);
}

TEST(IncompleteBetaTest, EndpointValues) {
  EXPECT_DOUBLE_EQ(*RegularizedIncompleteBeta(0.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(*RegularizedIncompleteBeta(1.0, 2.0, 3.0), 1.0);
}

TEST(IncompleteBetaTest, UniformCaseIsIdentity) {
  for (double x = 0.05; x < 1.0; x += 0.05) {
    EXPECT_NEAR(*RegularizedIncompleteBeta(x, 1.0, 1.0), x, 1e-13);
  }
}

TEST(IncompleteBetaTest, PowerLawWhenBIsOne) {
  // I_x(a, 1) = x^a.
  for (const double a : {0.3, 1.0, 2.0, 7.5}) {
    for (double x = 0.1; x < 1.0; x += 0.2) {
      EXPECT_NEAR(*RegularizedIncompleteBeta(x, a, 1.0), std::pow(x, a), 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(IncompleteBetaTest, ComplementPowerLawWhenAIsOne) {
  // I_x(1, b) = 1 - (1-x)^b.
  for (const double b : {0.3, 1.0, 2.0, 7.5}) {
    for (double x = 0.1; x < 1.0; x += 0.2) {
      EXPECT_NEAR(*RegularizedIncompleteBeta(x, 1.0, b),
                  1.0 - std::pow(1.0 - x, b), 1e-12)
          << "b=" << b << " x=" << x;
    }
  }
}

TEST(IncompleteBetaTest, SymmetricAtHalf) {
  // I_{1/2}(a, a) = 1/2 for any a.
  for (const double a : {0.2, 0.5, 1.0, 3.0, 30.0, 300.0}) {
    EXPECT_NEAR(*RegularizedIncompleteBeta(0.5, a, a), 0.5, 1e-12) << a;
  }
}

TEST(IncompleteBetaTest, ReflectionIdentity) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (const double a : {0.4, 1.7, 12.0}) {
    for (const double b : {0.9, 3.3, 25.0}) {
      for (double x = 0.05; x < 1.0; x += 0.1) {
        const double lhs = *RegularizedIncompleteBeta(x, a, b);
        const double rhs = 1.0 - *RegularizedIncompleteBeta(1.0 - x, b, a);
        EXPECT_NEAR(lhs, rhs, 1e-12) << a << " " << b << " " << x;
      }
    }
  }
}

TEST(IncompleteBetaTest, RecurrenceIdentity) {
  // I_x(a, b) = x I_x(a-1, b) + (1-x) I_x(a, b-1)  [DLMF 8.17.20/21 combo]
  // holds in the equivalent form I_x(a,b) = I_x(a+1,b) + x^a (1-x)^b /
  // (a B(a,b)).
  for (const double a : {1.5, 4.0}) {
    for (const double b : {2.5, 6.0}) {
      for (double x = 0.1; x < 1.0; x += 0.2) {
        const double lhs = *RegularizedIncompleteBeta(x, a, b);
        const double rhs =
            *RegularizedIncompleteBeta(x, a + 1.0, b) +
            std::exp(a * std::log(x) + b * std::log1p(-x) - std::log(a) -
                     LogBeta(a, b));
        EXPECT_NEAR(lhs, rhs, 1e-12) << a << " " << b << " " << x;
      }
    }
  }
}

TEST(IncompleteBetaTest, MatchesBinomialTailSum) {
  // I_p(k, n-k+1) = P(Bin(n, p) >= k), computed by direct summation.
  const int n = 12;
  const double p = 0.37;
  for (int k = 1; k <= n; ++k) {
    double tail = 0.0;
    for (int j = k; j <= n; ++j) {
      double choose = 1.0;
      for (int i = 0; i < j; ++i) {
        choose *= static_cast<double>(n - i) / static_cast<double>(i + 1);
      }
      tail += choose * std::pow(p, j) * std::pow(1.0 - p, n - j);
    }
    const double ib =
        *RegularizedIncompleteBeta(p, k, static_cast<double>(n - k + 1));
    EXPECT_NEAR(ib, tail, 1e-10) << "k=" << k;
  }
}

TEST(IncompleteBetaTest, MonotoneInX) {
  double prev = 0.0;
  for (double x = 0.01; x < 1.0; x += 0.01) {
    const double v = *RegularizedIncompleteBeta(x, 3.3, 0.7);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(IncompleteBetaTest, ExtremeParametersStayInRange) {
  for (const double a : {1e-3, 1.0, 500.0}) {
    for (const double b : {1e-3, 1.0, 500.0}) {
      for (const double x : {1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9}) {
        const auto r = RegularizedIncompleteBeta(x, a, b);
        ASSERT_TRUE(r.ok());
        EXPECT_GE(*r, 0.0);
        EXPECT_LE(*r, 1.0);
      }
    }
  }
}

TEST(IncompleteBetaTest, RejectsInvalidArguments) {
  EXPECT_FALSE(RegularizedIncompleteBeta(0.5, 0.0, 1.0).ok());
  EXPECT_FALSE(RegularizedIncompleteBeta(0.5, 1.0, -1.0).ok());
  EXPECT_FALSE(RegularizedIncompleteBeta(-0.1, 1.0, 1.0).ok());
  EXPECT_FALSE(RegularizedIncompleteBeta(1.1, 1.0, 1.0).ok());
}

TEST(BetaKernelStatsTest, CountsCallsAndIterationsPerThread) {
  ResetThreadBetaKernelStats();
  ASSERT_TRUE(RegularizedIncompleteBeta(0.3, 2.0, 5.0).ok());
  const BetaKernelStats one = ThreadBetaKernelStatsSnapshot();
  EXPECT_EQ(one.calls, 1u);
  EXPECT_GE(one.cf_iterations, 1u);
  // An endpoint is a call without a continued fraction; a rejected
  // argument is no call at all.
  ASSERT_TRUE(RegularizedIncompleteBeta(0.0, 2.0, 5.0).ok());
  EXPECT_FALSE(RegularizedIncompleteBeta(1.5, 2.0, 5.0).ok());
  const BetaKernelStats two = ThreadBetaKernelStatsSnapshot();
  EXPECT_EQ(two.calls, 2u);
  EXPECT_EQ(two.cf_iterations, one.cf_iterations);
  // A quantile inversion spends several kernel calls.
  ASSERT_TRUE(InverseRegularizedIncompleteBeta(0.3, 2.0, 5.0).ok());
  EXPECT_GT(ThreadBetaKernelStatsSnapshot().calls, 3u);
  ResetThreadBetaKernelStats();
  EXPECT_EQ(ThreadBetaKernelStatsSnapshot().calls, 0u);
  EXPECT_EQ(ThreadBetaKernelStatsSnapshot().cf_iterations, 0u);
}

/// I_x(a, b) with each branch written out on its own: the direct front
/// factor in (a, x) order and the mirrored one in (b, 1-x) order. The shared
/// body evaluates both through one expression and must not move a bit.
double TwoBranchIncompleteBeta(double x, double a, double b, double log_beta) {
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  double result;
  if (x < (a + 1.0) / (a + b + 2.0)) {
    result = std::exp(a * std::log(x) + b * std::log1p(-x) - std::log(a) -
                      log_beta) *
             internal::BetaContinuedFraction(x, a, b);
  } else {
    result = 1.0 - std::exp(b * std::log1p(-x) + a * std::log(x) -
                            std::log(b) - log_beta) *
                       internal::BetaContinuedFraction(1.0 - x, b, a);
  }
  return std::clamp(result, 0.0, 1.0);
}

TEST(IncompleteBetaSharedBodyTest, MatchesEveryOverloadBitForBit) {
  const double shapes[] = {0.5, 0.8, 1.0, 1.7, 4.0, 12.5, 60.0, 333.0, 1500.0,
                           5000.0};
  const double xs[] = {0.0,         1e-300,     1e-12, 1e-6,       0.01,
                       0.2,         0.5,        0.8,   0.99,       1.0 - 1e-6,
                       1.0 - 1e-12, std::nextafter(1.0, 0.0),      1.0};
  int direct = 0;
  int mirrored = 0;
  for (const double a : shapes) {
    for (const double b : shapes) {
      const double log_beta = LogBeta(a, b);
      for (const double x : xs) {
        SCOPED_TRACE(::testing::Message()
                     << "a=" << a << " b=" << b << " x=" << x);
        ResetThreadBetaKernelStats();
        const double body = internal::RegularizedIncompleteBetaFromLogs(
            x, a, b, log_beta, std::log(x), std::log1p(-x), std::log(a),
            std::log(b));
        const BetaKernelStats body_stats = ThreadBetaKernelStatsSnapshot();
        ResetThreadBetaKernelStats();
        const double with_log_beta = *RegularizedIncompleteBeta(x, a, b,
                                                                log_beta);
        const BetaKernelStats overload_stats = ThreadBetaKernelStatsSnapshot();
        const double plain = *RegularizedIncompleteBeta(x, a, b);
        const double two_branch = TwoBranchIncompleteBeta(x, a, b, log_beta);

        EXPECT_EQ(std::bit_cast<uint64_t>(body),
                  std::bit_cast<uint64_t>(with_log_beta));
        EXPECT_EQ(std::bit_cast<uint64_t>(body),
                  std::bit_cast<uint64_t>(plain));
        EXPECT_EQ(std::bit_cast<uint64_t>(body),
                  std::bit_cast<uint64_t>(two_branch));
        // One kernel call each, the same continued-fraction work.
        EXPECT_EQ(body_stats.calls, 1u);
        EXPECT_EQ(overload_stats.calls, 1u);
        EXPECT_EQ(body_stats.cf_iterations, overload_stats.cf_iterations);
        // Every fraction on the grid converges inside its bound.
        EXPECT_EQ(body_stats.cf_bound_stops, 0u);
        if (x > 0.0 && x < 1.0) {
          EXPECT_GE(body_stats.cf_iterations, 1u);
          ++(x < (a + 1.0) / (a + b + 2.0) ? direct : mirrored);
        }
      }
    }
  }
  // Both continued-fraction branches were exercised, many times over.
  EXPECT_GT(direct, 100);
  EXPECT_GT(mirrored, 100);
}

/// The scalar body at x with its counters: the reference each lane of the
/// two-lane body must reproduce.
struct ScalarCall {
  double value;
  BetaKernelStats stats;
};

ScalarCall ScalarBody(double x, double a, double b, double log_beta) {
  ResetThreadBetaKernelStats();
  const double value = internal::RegularizedIncompleteBetaFromLogs(
      x, a, b, log_beta, std::log(x), std::log1p(-x), std::log(a),
      std::log(b));
  return {value, ThreadBetaKernelStatsSnapshot()};
}

/// Runs the two-lane body at (p, q) and checks each lane against the
/// scalar body bit for bit, and the counters against the two scalar calls'.
/// Returns the scalar iteration counts of the two lanes.
std::pair<uint64_t, uint64_t> ExpectPairMatchesScalar(double p, double q,
                                                      double a, double b) {
  const double log_beta = LogBeta(a, b);
  const ScalarCall want_p = ScalarBody(p, a, b, log_beta);
  const ScalarCall want_q = ScalarBody(q, a, b, log_beta);
  ResetThreadBetaKernelStats();
  double got_p = -1.0;
  double got_q = -1.0;
  internal::RegularizedIncompleteBetaPairFromLogs(
      BetaPoint(p), BetaPoint(q), a, b, log_beta, std::log(a), std::log(b),
      &got_p, &got_q);
  const BetaKernelStats pair = ThreadBetaKernelStatsSnapshot();
  EXPECT_EQ(std::bit_cast<uint64_t>(got_p),
            std::bit_cast<uint64_t>(want_p.value));
  EXPECT_EQ(std::bit_cast<uint64_t>(got_q),
            std::bit_cast<uint64_t>(want_q.value));
  EXPECT_EQ(pair.calls, 2u);
  EXPECT_EQ(pair.cf_iterations,
            want_p.stats.cf_iterations + want_q.stats.cf_iterations);
  EXPECT_EQ(pair.cf_bound_stops,
            want_p.stats.cf_bound_stops + want_q.stats.cf_bound_stops);
  return {want_p.stats.cf_iterations, want_q.stats.cf_iterations};
}

TEST(IncompleteBetaPairTest, EachLaneMatchesTheScalarBodyBitForBit) {
  // The shape-by-argument grid of MatchesEveryOverloadBitForBit inside
  // (0, 1), every ordered pair of arguments per shape.
  const double shapes[] = {0.5, 0.8, 1.0, 1.7, 4.0, 12.5, 60.0, 333.0, 1500.0,
                           5000.0};
  const double xs[] = {1e-300, 1e-12, 1e-6,       0.01,       0.2,
                       0.5,    0.8,   0.99,       1.0 - 1e-6, 1.0 - 1e-12,
                       std::nextafter(1.0, 0.0)};
  int direct_direct = 0;
  int direct_mirrored = 0;
  int mirrored_mirrored = 0;
  uint64_t widest_gap = 0;
  for (const double a : shapes) {
    for (const double b : shapes) {
      const double split = (a + 1.0) / (a + b + 2.0);
      for (const double p : xs) {
        for (const double q : xs) {
          SCOPED_TRACE(::testing::Message() << "a=" << a << " b=" << b
                                            << " p=" << p << " q=" << q);
          const auto [iters_p, iters_q] = ExpectPairMatchesScalar(p, q, a, b);
          const int mirrored = (p < split ? 0 : 1) + (q < split ? 0 : 1);
          ++(mirrored == 0   ? direct_direct
             : mirrored == 1 ? direct_mirrored
                             : mirrored_mirrored);
          widest_gap = std::max(widest_gap, iters_p > iters_q
                                                ? iters_p - iters_q
                                                : iters_q - iters_p);
        }
      }
    }
  }
  EXPECT_GT(direct_direct, 1000);
  EXPECT_GT(direct_mirrored, 1000);
  EXPECT_GT(mirrored_mirrored, 1000);
  // Some pairs converge many iterations apart, so one lane finishes alone.
  EXPECT_GT(widest_gap, 50u);
}

TEST(IncompleteBetaPairTest, LanesPastTheFirstCheckAndAtTheBound) {
  // a = b = 1e7 at x = 1/2 runs 1,091 iterations, past the first bound
  // check at 400; 1e18 needs millions, more than the bound allows. Each is
  // paired with a lane that converges at once and with itself.
  for (const double shape : {1e7, 1e18}) {
    SCOPED_TRACE(shape);
    const auto [slow, fast] = ExpectPairMatchesScalar(0.5, 1e-300, shape,
                                                      shape);
    EXPECT_GT(slow, 400u);
    EXPECT_LE(fast, 2u);
    ExpectPairMatchesScalar(1e-300, 0.5, shape, shape);
    ExpectPairMatchesScalar(0.5, 0.5, shape, shape);
  }
  EXPECT_EQ(ScalarBody(0.5, 1e7, 1e7, LogBeta(1e7, 1e7)).stats.cf_bound_stops,
            0u);
  EXPECT_EQ(
      ScalarBody(0.5, 1e18, 1e18, LogBeta(1e18, 1e18)).stats.cf_bound_stops,
      1u);
}

TEST(IncompleteBetaTest, LargeShapesConvergePastFourHundredIterations) {
  // I_{1/2}(a, a) = 1/2 exactly. These fractions need 526 (1e6) and 1,091
  // (1e7) iterations; a fixed cap of 400 returned 0.49924 at 1e7 and gave
  // no sign of it. What error remains (~5e-8) is the front factor's.
  for (const double a : {1e6, 1e7}) {
    ResetThreadBetaKernelStats();
    EXPECT_NEAR(*RegularizedIncompleteBeta(0.5, a, a), 0.5, 1e-6) << a;
    const BetaKernelStats stats = ThreadBetaKernelStatsSnapshot();
    EXPECT_GT(stats.cf_iterations, 400u) << a;
    EXPECT_EQ(stats.cf_bound_stops, 0u) << a;
  }
}

TEST(InverseIncompleteBetaTest, EndpointValues) {
  EXPECT_DOUBLE_EQ(*InverseRegularizedIncompleteBeta(0.0, 2.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(*InverseRegularizedIncompleteBeta(1.0, 2.0, 3.0), 1.0);
}

TEST(InverseIncompleteBetaTest, UniformCaseIsIdentity) {
  for (double p = 0.05; p < 1.0; p += 0.05) {
    EXPECT_NEAR(*InverseRegularizedIncompleteBeta(p, 1.0, 1.0), p, 1e-12);
  }
}

TEST(InverseIncompleteBetaTest, MedianOfSymmetricIsHalf) {
  for (const double a : {0.3, 1.0, 5.0, 50.0}) {
    EXPECT_NEAR(*InverseRegularizedIncompleteBeta(0.5, a, a), 0.5, 1e-10) << a;
  }
}

TEST(InverseIncompleteBetaTest, RejectsInvalidArguments) {
  EXPECT_FALSE(InverseRegularizedIncompleteBeta(0.5, -1.0, 2.0).ok());
  EXPECT_FALSE(InverseRegularizedIncompleteBeta(-0.01, 1.0, 2.0).ok());
  EXPECT_FALSE(InverseRegularizedIncompleteBeta(1.01, 1.0, 2.0).ok());
}

// Every public overload, CDF and quantile alike, rejects a shape that is
// infinite or NaN, a pair whose sum overflows, and a non-finite log B up
// front, at every p (the quantile once answered 0.0 for Beta(inf, 2) at
// p = 0.7 and 1.0 for Beta(1e308, 1e308) at p = 0.3).
TEST(IncompleteBetaTest, RejectsNonFiniteShapesAndLogBeta) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Shapes {
    const char* what;
    double a;
    double b;
  };
  for (const Shapes& c : {Shapes{"a = +inf", inf, 2.0},
                          Shapes{"b = +inf", 2.0, inf},
                          Shapes{"a = -inf", -inf, 2.0},
                          Shapes{"b = -inf", 2.0, -inf},
                          Shapes{"a = NaN", nan, 2.0},
                          Shapes{"b = NaN", 2.0, nan},
                          Shapes{"a + b overflows", 1e308, 1e308}}) {
    SCOPED_TRACE(c.what);
    for (const double p : {0.3, 0.7}) {
      EXPECT_EQ(RegularizedIncompleteBeta(p, c.a, c.b).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(RegularizedIncompleteBeta(p, c.a, c.b, 0.0).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(InverseRegularizedIncompleteBeta(p, c.a, c.b).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(
          InverseRegularizedIncompleteBeta(p, c.a, c.b, 0.0).status().code(),
          StatusCode::kInvalidArgument);
    }
  }
  for (const double log_beta : {inf, -inf, nan}) {
    SCOPED_TRACE(log_beta);
    for (const double p : {0.3, 0.7}) {
      EXPECT_EQ(
          RegularizedIncompleteBeta(p, 2.0, 3.0, log_beta).status().code(),
          StatusCode::kInvalidArgument);
      EXPECT_EQ(InverseRegularizedIncompleteBeta(p, 2.0, 3.0, log_beta)
                    .status()
                    .code(),
                StatusCode::kInvalidArgument);
    }
  }
}

/// Property sweep: quantile/CDF round trips across a parameter grid,
/// including the sub-uniform shapes used by the Kerman/Jeffreys priors and
/// the razor-sharp posteriors arising late in evaluation runs.
class BetaRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BetaRoundTrip, QuantileInvertsCdf) {
  const auto [a, b] = GetParam();
  for (const double p :
       {1e-6, 0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999,
        1.0 - 1e-6}) {
    const auto x = InverseRegularizedIncompleteBeta(p, a, b);
    ASSERT_TRUE(x.ok());
    const auto back = RegularizedIncompleteBeta(*x, a, b);
    ASSERT_TRUE(back.ok());
    // Tolerance: a handful of CDF ulps, widened by the local derivative —
    // one ulp of x moves the CDF by ~pdf(x) * ulp(x), which is the hard
    // representability floor near x ~ 1 for b < 1 (exploding density).
    if (*x == 0.0 || *x == 1.0) {
      // The true quantile is closer to the endpoint than one double ulp
      // (e.g. 1 - 5e-18 for Beta(1/3, 1/3) at p = 1 - 1e-6); returning the
      // endpoint is the correctly rounded answer. Verify that claim: the
      // CDF one representable step inside must already overshoot p.
      if (*x == 1.0) {
        const double inside = std::nextafter(1.0, 0.0);
        EXPECT_LE(*RegularizedIncompleteBeta(inside, a, b), p)
            << "a=" << a << " b=" << b << " p=" << p;
      } else {
        const double inside = std::nextafter(0.0, 1.0);
        EXPECT_GE(*RegularizedIncompleteBeta(inside, a, b), p)
            << "a=" << a << " b=" << b << " p=" << p;
      }
      continue;
    }
    const double log_pdf = (a - 1.0) * std::log(*x) +
                           (b - 1.0) * std::log1p(-*x) - LogBeta(a, b);
    const double derivative_floor = std::exp(log_pdf) * (*x) * 4e-16;
    const double tol = std::max(5e-10, derivative_floor);
    EXPECT_NEAR(*back, p, tol) << "a=" << a << " b=" << b << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, BetaRoundTrip,
    ::testing::Values(
        std::make_tuple(1.0 / 3.0, 1.0 / 3.0),   // Kerman prior
        std::make_tuple(0.5, 0.5),               // Jeffreys prior
        std::make_tuple(1.0, 1.0),               // Uniform prior
        std::make_tuple(0.3333, 30.3333),        // tau=0 limiting posterior
        std::make_tuple(30.3333, 0.3333),        // tau=n limiting posterior
        std::make_tuple(2.0, 2.0), std::make_tuple(5.0, 1.5),
        std::make_tuple(1.5, 5.0), std::make_tuple(28.0, 4.0),
        std::make_tuple(170.5, 30.5),            // DBPEDIA-scale posterior
        std::make_tuple(350.0, 300.0),           // FACTBENCH-scale posterior
        std::make_tuple(1000.0, 12.0),           // very peaked, skewed
        std::make_tuple(5000.0, 5000.0)));       // very peaked, symmetric

}  // namespace
}  // namespace kgacc
