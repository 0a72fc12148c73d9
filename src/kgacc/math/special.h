#ifndef KGACC_MATH_SPECIAL_H_
#define KGACC_MATH_SPECIAL_H_

#include <cmath>
#include <cstdint>

#include "kgacc/util/status.h"

/// \file special.h
/// Scalar special functions underpinning every distribution in the library.
/// Implemented from scratch (no Boost/Eigen): log-beta via lgamma, the
/// regularized incomplete beta function via the modified Lentz continued
/// fraction, and its inverse via a bracketed Newton iteration.
///
/// The continued fraction has one recurrence body, run either alone or as
/// two lanes in one loop (`internal::RegularizedIncompleteBetaPairFromLogs`).
/// One fraction is bound by the latency of its chain of dependent
/// divisions, so a second, independent fraction stepped in the same loop
/// costs little more than the first. Each lane runs the scalar operations
/// in the scalar order and stops at its own convergence test, so both
/// paths give the same bits. A fraction may run 400 iterations, or more
/// for large shapes (the bound grows as (a + b)^(1/3)); one that stops at
/// the bound unconverged is counted in `BetaKernelStats::cf_bound_stops`.

namespace kgacc {

/// ln |Gamma(x)|, thread-safe: `std::lgamma` writes the global `signgam`,
/// a data race between concurrent workers; this returns the same values.
double LogGamma(double x);

/// Natural log of the complete beta function B(a, b). Requires a, b > 0.
double LogBeta(double a, double b);

/// Regularized incomplete beta function I_x(a, b) = P(X <= x) for
/// X ~ Beta(a, b). Requires finite a, b > 0 with a finite sum
/// (InvalidArgument otherwise) and x in [0, 1] (OutOfRange otherwise).
///
/// Uses the continued-fraction expansion (modified Lentz algorithm) with the
/// symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a) to stay in the
/// fast-converging regime. Absolute accuracy is ~1e-14 over the full domain.
///
/// Both overloads validate their arguments, take the logarithms the front
/// factor needs and call `internal::RegularizedIncompleteBetaFromLogs`, the
/// one body that evaluates the front factor, dispatches the continued
/// fraction and counts the call (`BetaKernelStats`). Its two-lane version
/// shares the front factor and the fraction's step with it.
Result<double> RegularizedIncompleteBeta(double x, double a, double b);

/// Overload taking the precomputed `log_beta = LogBeta(a, b)`. Evaluating
/// the front factor costs three lgamma calls per invocation otherwise —
/// pure overhead for callers that fix (a, b) and evaluate the CDF many
/// times. Bit-identical to the two-parameter overload (LogBeta is symmetric
/// down to the last ulp, so even the mirrored branch reuses the value).
Result<double> RegularizedIncompleteBeta(double x, double a, double b,
                                         double log_beta);

/// Inverse of the regularized incomplete beta function: the unique x in
/// [0, 1] with I_x(a, b) = p. Requires finite a, b > 0 with a finite sum
/// (InvalidArgument otherwise) and p in [0, 1] (OutOfRange otherwise).
///
/// Newton iteration on the CDF with a maintained bisection bracket; falls
/// back to pure bisection whenever a Newton step leaves the bracket. Each
/// iterate takes one log x and one log1p(-x), shared by the CDF and the
/// log-density.
Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b);

/// Overload taking the precomputed `log_beta = LogBeta(a, b)`; every Newton
/// iteration evaluates the CDF and the log-PDF, both of which reuse it.
/// Both log-beta overloads reject a non-finite `log_beta` with
/// InvalidArgument.
Result<double> InverseRegularizedIncompleteBeta(double p, double a, double b,
                                                double log_beta);

/// Incomplete-beta kernel counters for the calling thread: the work behind
/// every CDF and quantile. They are counted in the shared bodies
/// `internal::RegularizedIncompleteBetaFromLogs` and its two-lane version,
/// which counts as two scalar calls, so every path into the kernel counts
/// alike. `HpdResult`'s evaluation counts are lower bounds
/// on it: a quantile counts there as one evaluation, here as every kernel
/// call its inversion made.
struct BetaKernelStats {
  /// Shared-body evaluations: every `RegularizedIncompleteBeta` call with a
  /// valid argument, every `BetaDistribution::Cdf` inside the support (a
  /// `CdfPair` is two) and every quantile iterate.
  uint64_t calls = 0;
  /// Continued-fraction iterations those calls ran.
  uint64_t cf_iterations = 0;
  /// Continued fractions that stopped at their iteration bound before
  /// converging: each returned a value short of the kernel's accuracy.
  uint64_t cf_bound_stops = 0;

  BetaKernelStats& operator+=(const BetaKernelStats& other) {
    calls += other.calls;
    cf_iterations += other.cf_iterations;
    cf_bound_stops += other.cf_bound_stops;
    return *this;
  }
};

/// Snapshot of this thread's kernel counters since the last reset.
BetaKernelStats ThreadBetaKernelStatsSnapshot();

/// Zeroes this thread's kernel counters.
void ResetThreadBetaKernelStats();

/// A point x in (0, 1) with its logarithms, taken once and shared by every
/// quantity a caller evaluates there (`BetaDistribution::CdfPair`,
/// `LogPdf`, `Pdf`). The HPD Newton system evaluates two CDFs, two densities and a
/// log-density gap at each (l, u); with a point per endpoint that costs
/// four logarithms instead of fourteen.
struct BetaPoint {
  explicit BetaPoint(double x)
      : x(x), log_x(std::log(x)), log1m_x(std::log1p(-x)) {}

  double x;
  double log_x;    // log x
  double log1m_x;  // log1p(-x) = log(1 - x)
};

namespace internal {

/// The one incomplete-beta body behind every public overload and
/// `BetaDistribution::Cdf`: I_x(a, b) from x, the shapes, log B(a, b) and
/// the precomputed log x, log1p(-x), log a and log b. Callers that evaluate
/// several quantities at one point (the HPD Newton system, the quantile
/// iteration) take each logarithm once and pass it here. Assumes valid
/// arguments (a, b > 0, x in [0, 1]); counts one kernel call.
double RegularizedIncompleteBetaFromLogs(double x, double a, double b,
                                         double log_beta, double log_x,
                                         double log1m_x, double log_a,
                                         double log_b);

/// Two-lane `RegularizedIncompleteBetaFromLogs`: I_x(a, b) at two points
/// of one Beta(a, b), their continued fractions stepped together in one
/// loop until one converges, the other then finishing alone. Each result
/// equals the scalar body's bit for bit, and the counters read as two
/// scalar calls would leave them: two calls, each lane's own iterations.
/// The side choice and front factor are the scalar body's code. Assumes
/// valid arguments (a, b > 0, both points inside (0, 1)).
void RegularizedIncompleteBetaPairFromLogs(const BetaPoint& p,
                                           const BetaPoint& q, double a,
                                           double b, double log_beta,
                                           double log_a, double log_b,
                                           double* i_p, double* i_q);

/// Continued-fraction kernel used by RegularizedIncompleteBeta; exposed for
/// targeted testing. Assumes x < (a+1)/(a+b+2) (the convergent region).
/// Counts its iterations but no call.
double BetaContinuedFraction(double x, double a, double b);

}  // namespace internal

}  // namespace kgacc

#endif  // KGACC_MATH_SPECIAL_H_
