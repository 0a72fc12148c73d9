#ifndef KGACC_REFERENCE_SLSQP_H_
#define KGACC_REFERENCE_SLSQP_H_

#include <functional>
#include <vector>

#include "kgacc/intervals/interval.h"
#include "kgacc/math/beta.h"
#include "kgacc/util/status.h"

/// \file slsqp.h
/// A dense Sequential Least-SQuares Programming (SLSQP-style) solver for
/// small smooth problems with equality constraints and box bounds:
///
///     minimize    f(x)
///     subject to  c_i(x) = 0,  lo <= x <= hi
///
/// This is the optimizer the paper prescribes for computing HPD credible
/// intervals (§4.3, Kraft 1988): each outer iteration solves a quadratic
/// subproblem whose objective is a damped-BFGS second-order model of the
/// Lagrangian and whose constraints are linearizations of the originals,
/// globalized with an L1 exact-penalty merit line search.
///
/// Designed for the low-dimensional problems arising here (n <= ~16); all
/// linear algebra is dense with partial pivoting. `HpdIntervalSqp` states
/// the HPD program on it: the reference the library's Newton KKT solve
/// (`intervals/credible.h`) is checked against. No audit runs either.

namespace kgacc {

/// A scalar function of a vector argument.
using VectorFn = std::function<double(const std::vector<double>&)>;

/// Problem definition for MinimizeSlsqp. Gradients/Jacobians are optional;
/// when absent they are approximated with central finite differences.
struct SlsqpProblem {
  VectorFn objective;
  /// Optional analytic gradient of the objective.
  std::function<std::vector<double>(const std::vector<double>&)> gradient;
  /// Equality constraints c_i(x) = 0.
  std::vector<VectorFn> eq_constraints;
  /// Optional analytic gradients of each equality constraint.
  std::vector<std::function<std::vector<double>(const std::vector<double>&)>>
      eq_gradients;
  /// Box bounds; empty means unbounded in that direction.
  std::vector<double> lower;
  std::vector<double> upper;
};

/// Tuning knobs for the solver.
struct SlsqpOptions {
  int max_iterations = 100;
  /// Step-size convergence threshold (infinity norm of the step).
  double step_tol = 1e-11;
  /// Feasibility threshold on max |c_i(x)|.
  double constraint_tol = 1e-10;
  /// KKT stationarity threshold on the projected Lagrangian gradient
  /// ||g + A'lambda||_inf (components blocked by an active bound with a
  /// correctly signed multiplier are projected out). When positive,
  /// convergence additionally requires stationarity — a short step alone
  /// no longer counts, which matters when a warm start lands the first
  /// iterate within `step_tol` of itself without being a solution.
  /// 0 disables the test (legacy short-step behavior); leave it disabled
  /// for finite-difference gradients, whose noise floor sits near any
  /// useful threshold.
  double stationarity_tol = 0.0;
  /// Relative step for finite-difference derivatives.
  double fd_step = 1e-7;
};

/// Outcome of an SLSQP solve.
struct SlsqpSolve {
  std::vector<double> x;          ///< Final iterate.
  double fx = 0.0;                ///< Objective at `x`.
  double max_violation = 0.0;     ///< max |c_i(x)| at `x`.
  double kkt_residual = 0.0;      ///< Projected ||g + A'lambda||_inf at `x`.
  int iterations = 0;             ///< Outer iterations used.
  bool converged = false;         ///< True if every enabled tolerance was met.
};

/// Runs the SQP iteration from `x0` (clamped into the bounds first).
/// Returns an error for malformed problems (no objective, inconsistent
/// bound sizes); an unconverged-but-finite run is reported through
/// `SlsqpSolve::converged`, not as an error.
Result<SlsqpSolve> MinimizeSlsqp(const SlsqpProblem& problem,
                                 std::vector<double> x0,
                                 const SlsqpOptions& options = {});

/// A reference solve and the work it took: SQP outer iterations, and
/// coverage-constraint (2 CDF each) and gradient (2 PDF each) evaluations,
/// counted as `HpdResult` counts them.
struct SqpHpdResult {
  Interval interval;
  int iterations = 0;
  int cdf_evals = 0;
  int pdf_evals = 0;
};

/// The paper's §4.3 HPD formulation: SLSQP on min (u - l) subject to
/// F(u) - F(l) = 1 - alpha. A unimodal posterior is solved from `start`
/// (clamped into [0, 1]^2), or from the ET interval when it is null
/// (Alg. 1 line 20); other shapes take `HpdInterval`'s closed forms. No
/// fallback: a solve that does not converge returns an error.
Result<SqpHpdResult> HpdIntervalSqp(const BetaDistribution& posterior,
                                    double alpha,
                                    const Interval* start = nullptr);

namespace internal {

/// Solves the dense linear system `a * x = b` (row-major n x n) in place
/// with partial pivoting. Returns false when the matrix is singular to
/// working precision. Exposed for unit testing.
bool SolveLinearSystem(std::vector<double> a, std::vector<double> b, int n,
                       std::vector<double>* x);

}  // namespace internal

}  // namespace kgacc

#endif  // KGACC_REFERENCE_SLSQP_H_
