#ifndef KGACC_MATH_SPECIAL_H_
#define KGACC_MATH_SPECIAL_H_

#include <cstdint>

#include "kgacc/util/status.h"

/// \file special.h
/// Scalar special functions underpinning every distribution in the library.
/// Implemented from scratch (no Boost/Eigen): log-beta via lgamma, the
/// regularized incomplete beta function via the modified Lentz continued
/// fraction, and its inverse via a bracketed Newton iteration.

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
/// fraction and counts the call (`BetaKernelStats`).
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
/// every CDF and quantile. Both are counted in one place, the shared body
/// `internal::RegularizedIncompleteBetaFromLogs`, so every path into the
/// kernel counts alike. `HpdResult`'s evaluation counts are lower bounds
/// on it: a quantile counts there as one evaluation, here as every kernel
/// call its inversion made.
struct BetaKernelStats {
  /// Shared-body evaluations: every `RegularizedIncompleteBeta` call with a
  /// valid argument, every `BetaDistribution::Cdf` inside the support and
  /// every quantile iterate.
  uint64_t calls = 0;
  /// Continued-fraction iterations those calls ran.
  uint64_t cf_iterations = 0;

  BetaKernelStats& operator+=(const BetaKernelStats& other) {
    calls += other.calls;
    cf_iterations += other.cf_iterations;
    return *this;
  }
};

/// Snapshot of this thread's kernel counters since the last reset.
BetaKernelStats ThreadBetaKernelStatsSnapshot();

/// Zeroes this thread's kernel counters.
void ResetThreadBetaKernelStats();

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

/// Continued-fraction kernel used by RegularizedIncompleteBeta; exposed for
/// targeted testing. Assumes x < (a+1)/(a+b+2) (the convergent region).
double BetaContinuedFraction(double x, double a, double b);

}  // namespace internal

}  // namespace kgacc

#endif  // KGACC_MATH_SPECIAL_H_
