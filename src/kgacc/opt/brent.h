#ifndef KGACC_OPT_BRENT_H_
#define KGACC_OPT_BRENT_H_

#include <functional>

#include "kgacc/util/status.h"

/// \file brent.h
/// Derivative-free 1-D root finding (Brent's method). The HPD solver's 1-D
/// reduction (`HpdIntervalByRoot`, also the Newton path's fallback) finds
/// the lower bound as the root of the log-density gap between endpoints.

namespace kgacc {

/// Result of a 1-D solve.
struct ScalarSolve {
  double x = 0.0;       ///< Located root / minimizer.
  double fx = 0.0;      ///< Function value at `x`.
  int iterations = 0;   ///< Iterations consumed.
};

/// Finds a root of `f` in [a, b] with Brent's method (inverse quadratic
/// interpolation + secant + bisection). Requires f(a) and f(b) to have
/// opposite signs (or one of them to be an exact root). Iterates to working
/// precision (a bracket of 2e-16 |x|), at most 200 iterations.
Result<ScalarSolve> FindRootBrent(const std::function<double(double)>& f,
                                  double a, double b);

}  // namespace kgacc

#endif  // KGACC_OPT_BRENT_H_
