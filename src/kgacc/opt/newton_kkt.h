#ifndef KGACC_OPT_NEWTON_KKT_H_
#define KGACC_OPT_NEWTON_KKT_H_

#include <algorithm>
#include <cmath>
#include <concepts>

#include "kgacc/util/status.h"

/// \file newton_kkt.h
/// A damped Newton solver for 2-equation KKT systems R(x0, x1) = 0 with an
/// analytic Jacobian, box safeguarding, and a convergence certificate.
///
/// Built for the unimodal HPD program of §4.3: the minimizer of
/// {min u - l s.t. F(u) - F(l) = 1 - alpha} is characterized by the
/// first-order system {F(u) - F(l) = 1 - alpha, f(l) = f(u)}, whose
/// Jacobian entries are ±f and ±(log f)' — both cheap for a Beta
/// posterior. Newton on that system converges in a handful of iterations
/// (two CDF and two PDF evaluations each) where the paper's general solver
/// pays ~25 coverage-constraint evaluations per solve. The solver itself is
/// problem-agnostic: callers supply the residual/Jacobian evaluation.
///
/// The solver is a template over that callable, so the hot path passes a
/// lambda directly and the iteration inlines with zero heap allocations —
/// this is what extends the evaluation session's steady-state
/// zero-allocation contract into the interval layer (a `std::function`
/// here cost one type-erasure allocation per HPD solve).
///
/// It is a *basin* method, not a globalized one: when the iteration leaves
/// the basin (non-finite step, repeated residual growth, an endpoint
/// pinned at the box) it reports the reason instead of grinding, and the
/// caller falls back to a globalized solver (for HPD, the bracketed 1-D
/// root of `HpdIntervalByRoot`).

namespace kgacc {

/// Why the iteration stopped.
enum class NewtonKktStop {
  kConverged,
  /// Residual tolerances unmet after `kNewtonKktMaxIterations`.
  kMaxIterations,
  /// The 2x2 Jacobian was singular to working precision.
  kSingularJacobian,
  /// A residual, Jacobian entry, or step turned non-finite.
  kNonFinite,
  /// The damped step failed to reduce the residual norm for
  /// `kNewtonKktMaxGrowthIterations` consecutive iterations.
  kResidualGrowth,
  /// An endpoint sat on the safeguarding box after a step — the solution
  /// of the intended (interior) problem is not in reach from here.
  kPinnedAtBox,
};

/// The solver's settings. Each has one value, the HPD program's (§4.3).
/// Iteration cap: seeded from the predicted warm carry, an HPD solve
/// averages ~3.2 iterations on an audit mix.
inline constexpr int kNewtonKktMaxIterations = 32;
/// Per-equation absolute residual tolerances (the certificate below reports
/// the final residuals against these): 1e-12 coverage mass and 1e-9
/// relative density mismatch bound the HPD endpoint error well below the
/// 1e-9 the equivalence tests demand against the reference solvers.
inline constexpr double kNewtonKktR0Tol = 1e-12;
inline constexpr double kNewtonKktR1Tol = 1e-9;
/// Backtracking halvings per iteration before the step counts as a
/// residual-growth iteration.
inline constexpr int kNewtonKktMaxBacktracks = 10;
/// Consecutive no-decrease iterations tolerated before giving up.
inline constexpr int kNewtonKktMaxGrowthIterations = 2;
/// Safeguarding box applied to both variables; iterates additionally keep
/// x0 < x1. Interior unimodal optima live strictly inside (0, 1); an
/// iterate pinned here has left the basin.
inline constexpr double kNewtonKktLo = 1e-12;
inline constexpr double kNewtonKktHi = 1.0 - 1e-12;

/// Outcome of a solve. `converged` iff both residual tolerances were met;
/// (r0, r1) are the residuals at (x0, x1) either way — the convergence
/// certificate a caller can audit instead of trusting the flag.
struct NewtonKkt2Solve {
  double x0 = 0.0;
  double x1 = 0.0;
  double r0 = 0.0;
  double r1 = 0.0;
  int iterations = 0;
  /// System (residual + Jacobian) evaluations consumed, including line
  /// search trials.
  int system_evals = 0;
  bool converged = false;
  NewtonKktStop reason = NewtonKktStop::kMaxIterations;
};

namespace internal {

/// Residual-norm merit. The two equations should be scaled comparably by
/// the caller (the HPD system uses a probability-scale coverage residual
/// and a log-density-scale equality residual, both O(1) on the basin).
inline double NewtonKktMerit(const double r[2]) {
  return r[0] * r[0] + r[1] * r[1];
}

inline bool NewtonKktFinite2(const double r[2]) {
  return std::isfinite(r[0]) && std::isfinite(r[1]);
}

inline bool NewtonKktFinite4(const double j[4]) {
  return std::isfinite(j[0]) && std::isfinite(j[1]) && std::isfinite(j[2]) &&
         std::isfinite(j[3]);
}

}  // namespace internal

/// Runs the damped Newton iteration from (x0, x1), clamped into the box
/// first. Returns an error only for malformed input (x0 >= x1 after
/// clamping); leaving the basin is reported through
/// `NewtonKkt2Solve::reason`, not as an error.
///
/// `system` is any callable `void(double x0, double x1, double* r, double*
/// jac)` that writes the two residuals at (x0, x1) into `r` and the
/// row-major 2x2 Jacobian dR_i/dx_j into `jac`. It is invoked directly (no
/// type erasure, no allocation).
template <typename SystemFn>
  requires std::invocable<const SystemFn&, double, double, double*, double*>
Result<NewtonKkt2Solve> SolveNewtonKkt2(const SystemFn& system, double x0,
                                        double x1) {
  using internal::NewtonKktFinite2;
  using internal::NewtonKktFinite4;
  using internal::NewtonKktMerit;
  NewtonKkt2Solve out;
  out.x0 = std::clamp(x0, kNewtonKktLo, kNewtonKktHi);
  out.x1 = std::clamp(x1, kNewtonKktLo, kNewtonKktHi);
  if (!(out.x0 < out.x1)) {
    return Status::InvalidArgument(
        "NewtonKkt2: start does not satisfy x0 < x1 inside the box");
  }

  double r[2];
  double jac[4];
  system(out.x0, out.x1, r, jac);
  ++out.system_evals;
  double merit = NewtonKktMerit(r);
  int growth_iterations = 0;

  for (int iter = 1; iter <= kNewtonKktMaxIterations; ++iter) {
    out.iterations = iter;
    out.r0 = r[0];
    out.r1 = r[1];
    if (!NewtonKktFinite2(r) || !NewtonKktFinite4(jac) ||
        !std::isfinite(merit)) {
      out.reason = NewtonKktStop::kNonFinite;
      return out;
    }
    if (std::fabs(r[0]) <= kNewtonKktR0Tol &&
        std::fabs(r[1]) <= kNewtonKktR1Tol) {
      out.converged = true;
      out.reason = NewtonKktStop::kConverged;
      return out;
    }

    // Newton step: J d = -r, solved in closed form.
    const double det = jac[0] * jac[3] - jac[1] * jac[2];
    const double scale =
        std::max({std::fabs(jac[0]) * std::fabs(jac[3]),
                  std::fabs(jac[1]) * std::fabs(jac[2]), 1e-300});
    if (std::fabs(det) <= 1e-14 * scale) {
      out.reason = NewtonKktStop::kSingularJacobian;
      return out;
    }
    const double d0 = (-r[0] * jac[3] + r[1] * jac[1]) / det;
    const double d1 = (-r[1] * jac[0] + r[0] * jac[2]) / det;
    if (!std::isfinite(d0) || !std::isfinite(d1)) {
      out.reason = NewtonKktStop::kNonFinite;
      return out;
    }

    // Damped acceptance: halve the step until the residual norm drops.
    // Trials are clamped into the box and must keep x0 < x1.
    double t = 1.0;
    bool accepted = false;
    double best_x0 = out.x0, best_x1 = out.x1;
    double trial_r[2];
    double trial_jac[4];
    bool clamped = false;
    for (int bt = 0; bt <= kNewtonKktMaxBacktracks; ++bt, t *= 0.5) {
      const double raw0 = out.x0 + t * d0;
      const double raw1 = out.x1 + t * d1;
      const double c0 = std::clamp(raw0, kNewtonKktLo, kNewtonKktHi);
      const double c1 = std::clamp(raw1, kNewtonKktLo, kNewtonKktHi);
      if (!(c0 < c1)) continue;  // Endpoints crossed; shorten further.
      system(c0, c1, trial_r, trial_jac);
      ++out.system_evals;
      const double trial_merit = NewtonKktMerit(trial_r);
      if (std::isfinite(trial_merit) && trial_merit < merit) {
        best_x0 = c0;
        best_x1 = c1;
        clamped = (c0 != raw0) || (c1 != raw1);
        std::copy(trial_r, trial_r + 2, r);
        std::copy(trial_jac, trial_jac + 4, jac);
        merit = trial_merit;
        accepted = true;
        break;
      }
    }
    if (!accepted) {
      if (++growth_iterations >= kNewtonKktMaxGrowthIterations) {
        out.reason = NewtonKktStop::kResidualGrowth;
        return out;
      }
      // Retry from the same iterate with a perturbed (bisected) step: take
      // the smallest backtracked trial even though it grew, so the next
      // iteration sees a fresh Jacobian. Without movement the next round
      // would recompute the identical step, so this is the last chance
      // before kResidualGrowth fires above.
      const double tiny = std::ldexp(1.0, -kNewtonKktMaxBacktracks);
      const double c0 =
          std::clamp(out.x0 + tiny * d0, kNewtonKktLo, kNewtonKktHi);
      const double c1 =
          std::clamp(out.x1 + tiny * d1, kNewtonKktLo, kNewtonKktHi);
      if (!(c0 < c1)) {
        out.reason = NewtonKktStop::kResidualGrowth;
        return out;
      }
      system(c0, c1, r, jac);
      ++out.system_evals;
      merit = NewtonKktMerit(r);
      out.x0 = c0;
      out.x1 = c1;
      continue;
    }
    growth_iterations = 0;
    out.x0 = best_x0;
    out.x1 = best_x1;
    out.r0 = r[0];
    out.r1 = r[1];
    // Re-test convergence on the accepted step: the final allowed
    // iteration (and a tolerant step that brushed the box) must not be
    // thrown away just because the loop is about to exit.
    if (std::fabs(r[0]) <= kNewtonKktR0Tol &&
        std::fabs(r[1]) <= kNewtonKktR1Tol) {
      out.converged = true;
      out.reason = NewtonKktStop::kConverged;
      return out;
    }
    // A step that ended on the box wall means the interior solution is not
    // reachable along this path; let the globalized fallback handle it.
    if (clamped && (out.x0 <= kNewtonKktLo || out.x1 >= kNewtonKktHi)) {
      out.reason = NewtonKktStop::kPinnedAtBox;
      return out;
    }
  }
  out.r0 = r[0];
  out.r1 = r[1];
  // A growth-path (perturbed) step taken on the last iteration skips the
  // in-loop test; give its residuals the same final chance.
  if (NewtonKktFinite2(r) && std::fabs(r[0]) <= kNewtonKktR0Tol &&
      std::fabs(r[1]) <= kNewtonKktR1Tol) {
    out.converged = true;
    out.reason = NewtonKktStop::kConverged;
  } else {
    out.reason = NewtonKktStop::kMaxIterations;
  }
  return out;
}

}  // namespace kgacc

#endif  // KGACC_OPT_NEWTON_KKT_H_
