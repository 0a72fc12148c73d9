#include "kgacc/intervals/credible.h"

#include <algorithm>
#include <cmath>

#include "kgacc/opt/brent.h"
#include "kgacc/opt/newton_kkt.h"

namespace kgacc {

namespace {

/// Clamp on the 1-D root's log-density gap. Brent's interpolation cannot
/// take the infinite gaps at the bracket ends; clamping keeps every
/// value's sign, so the root is unchanged.
constexpr double kLogDensityCap = 1e4;

/// The 1-D root's smallest bracket point, relative to its largest.
constexpr double kOriginBracketScale = 1e-12;

thread_local HpdSolveStats t_hpd_stats;

HpdPathTally& TallyFor(HpdPath path) {
  switch (path) {
    case HpdPath::kLimiting:
      return t_hpd_stats.limiting;
    case HpdPath::kNewton:
      return t_hpd_stats.newton;
    case HpdPath::kOneDim:
      return t_hpd_stats.onedim;
  }
  return t_hpd_stats.limiting;
}

void TallySolve(const HpdResult& result) {
  HpdPathTally& tally = TallyFor(result.path);
  ++tally.solves;
  tally.iterations += static_cast<uint64_t>(result.solver_iterations);
  tally.cdf_evals += static_cast<uint64_t>(result.cdf_evals);
  tally.pdf_evals += static_cast<uint64_t>(result.pdf_evals);
  tally.quantile_evals += static_cast<uint64_t>(result.quantile_evals);
}

Status ValidateAlpha(double alpha) {
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::OutOfRange("significance level alpha must be in (0,1)");
  }
  return Status::OK();
}

/// The standard-case first-order system (Thm. 1): coverage on probability
/// scale, density equality on log scale — both O(1) on the basin, so the
/// Newton merit treats them evenly. The log form also keeps the second
/// equation well-conditioned for extreme-peaked posteriors, where raw
/// densities overflow the merit long before the endpoints degrade.
/// One evaluation costs 2 CDF + 2 PDF calls (the Jacobian's density row is
/// shared with the coverage gradient; the log-density slopes are rational);
/// the two CDFs run as one two-lane kernel call (`CdfPair`).
/// Each endpoint's log x and log1p(-x) are taken once and feed its CDF, its
/// density and the log-density gap: 8 libm calls per evaluation, not 18.
bool TryHpdNewton(const BetaDistribution& posterior, double alpha,
                  const Interval& start, HpdResult* out) {
  const double a = posterior.a();
  const double b = posterior.b();
  // The solver is templated over the callable, so the system inlines and
  // the solve allocates nothing.
  const auto system = [&posterior, a, b, alpha, out](
                          double l, double u, double* r, double* jac) {
    out->cdf_evals += 2;
    out->pdf_evals += 2;
    // The solver keeps both endpoints inside the box, so (0, 1) holds.
    const BetaPoint pl(l);
    const BetaPoint pu(u);
    double cdf_l;
    double cdf_u;
    posterior.CdfPair(pl, pu, &cdf_l, &cdf_u);
    r[0] = cdf_u - cdf_l - (1.0 - alpha);
    r[1] = (a - 1.0) * (pl.log_x - pu.log_x) +
           (b - 1.0) * (pl.log1m_x - pu.log1m_x);
    jac[0] = -posterior.Pdf(pl);
    jac[1] = posterior.Pdf(pu);
    jac[2] = (a - 1.0) / l - (b - 1.0) / (1.0 - l);
    jac[3] = -((a - 1.0) / u - (b - 1.0) / (1.0 - u));
  };

  const Result<NewtonKkt2Solve> solve =
      SolveNewtonKkt2(system, start.lower, start.upper);
  if (!solve.ok() || !solve->converged) {
    if (solve.ok()) out->solver_iterations += solve->iterations;
    return false;
  }
  out->interval = Interval{solve->x0, solve->x1};
  out->solver_iterations += solve->iterations;
  out->path = HpdPath::kNewton;
  out->kkt_coverage_residual = solve->r0;
  out->kkt_density_residual = solve->r1;
  return true;
}

/// Standard-case HPD via a 1-D root. Each lower bound l fixes the upper
/// bound u(l) = F^{-1}(F(l) + 1 - alpha) that keeps the coverage exact, so
/// Thm. 1's density condition becomes g(l) = log f(l) - log f(u(l)) = 0.
/// On a unimodal posterior g < 0 near 0 and g = +inf at l = F^{-1}(alpha)
/// (where u reaches 1), so the bracketed root is the HPD lower bound.
Status HpdViaOneDim(const BetaDistribution& posterior, double alpha,
                    HpdResult* out) {
  if (posterior.a() > posterior.b()) {
    // Solve the mirror image Beta(b, a), so the boundary nearer the mode is
    // always the origin and the safeguard below covers both ends.
    KGACC_ASSIGN_OR_RETURN(
        const BetaDistribution mirror,
        BetaDistribution::Create(posterior.b(), posterior.a()));
    KGACC_RETURN_IF_ERROR(HpdViaOneDim(mirror, alpha, out));
    out->interval = Interval{1.0 - out->interval.upper,
                             1.0 - out->interval.lower};
    return Status::OK();
  }
  ++out->quantile_evals;
  KGACC_ASSIGN_OR_RETURN(const double l_max, posterior.Quantile(alpha));
  Status failure = Status::OK();
  auto upper = [&](double l) {
    ++out->cdf_evals;
    ++out->quantile_evals;
    Result<double> u =
        posterior.Quantile(std::min(posterior.Cdf(l) + (1.0 - alpha), 1.0));
    if (!u.ok() && failure.ok()) failure = u.status();
    return u.ok() ? *u : 1.0;
  };
  // log f(0) = log f(1) = -inf for a unimodal posterior, hence the clamp.
  auto g = [&](double l) {
    if (l >= l_max) return kLogDensityCap;
    out->pdf_evals += 2;
    const double v = posterior.LogPdf(l) - posterior.LogPdf(upper(l));
    return std::clamp(v, -kLogDensityCap, kLogDensityCap);
  };
  // The smallest bracket point sits just above the origin. If the density
  // there already matches the far end (a -> 1+), the root lies below any
  // resolvable l and the HPD lower bound is 0.
  const double l_min = kOriginBracketScale * l_max;
  double l = 0.0;
  if (g(l_min) < 0.0) {
    KGACC_ASSIGN_OR_RETURN(const ScalarSolve solve,
                           FindRootBrent(g, l_min, l_max));
    l = solve.x;
    out->solver_iterations += solve.iterations;
  }
  const double u = upper(l);
  // Any quantile failure poisons the bracket; surface it instead of
  // accepting a root located against substituted values.
  KGACC_RETURN_IF_ERROR(failure);
  out->interval = Interval{l, u};
  out->path = HpdPath::kOneDim;
  return Status::OK();
}

/// The shape dispatch shared by `HpdInterval` and `HpdIntervalByRoot`:
/// closed forms for the limiting and U-shaped posteriors, and
/// `solve_unimodal(&out)` for the interior unimodal one. Tallies every
/// successful solve.
template <typename SolveUnimodal>
Result<HpdResult> SolveHpd(const BetaDistribution& posterior, double alpha,
                           SolveUnimodal solve_unimodal) {
  KGACC_RETURN_IF_ERROR(ValidateAlpha(alpha));
  HpdResult out;
  out.shape = posterior.Shape();

  switch (out.shape) {
    case BetaShape::kDecreasing: {
      // Limiting case (2), Eq. 11: density peaks at 0.
      ++out.quantile_evals;
      KGACC_ASSIGN_OR_RETURN(const double u, posterior.Quantile(1.0 - alpha));
      out.interval = Interval{0.0, u};
      break;
    }
    case BetaShape::kIncreasing: {
      // Limiting case (1), Eq. 10: density peaks at 1.
      ++out.quantile_evals;
      KGACC_ASSIGN_OR_RETURN(const double l, posterior.Quantile(alpha));
      out.interval = Interval{l, 1.0};
      break;
    }
    case BetaShape::kUShaped: {
      // Both endpoints are modes; the highest-density *region* is a union
      // of two disjoint pieces and no single interval is HPD. Report the ET
      // interval, which remains a valid 1-alpha CrI.
      out.quantile_evals += 2;
      KGACC_ASSIGN_OR_RETURN(out.interval,
                             EqualTailedInterval(posterior, alpha));
      break;
    }
    case BetaShape::kUnimodal:
      KGACC_RETURN_IF_ERROR(solve_unimodal(&out));
      break;
  }
  TallySolve(out);
  return out;
}

}  // namespace

HpdSolveStats ThreadHpdStatsSnapshot() { return t_hpd_stats; }

void ResetThreadHpdStats() { t_hpd_stats = HpdSolveStats{}; }

Result<Interval> EqualTailedInterval(const BetaDistribution& posterior,
                                     double alpha) {
  KGACC_RETURN_IF_ERROR(ValidateAlpha(alpha));
  KGACC_ASSIGN_OR_RETURN(const double lower, posterior.Quantile(alpha / 2.0));
  KGACC_ASSIGN_OR_RETURN(const double upper,
                         posterior.Quantile(1.0 - alpha / 2.0));
  return Interval{lower, upper};
}

Result<HpdResult> HpdInterval(const BetaDistribution& posterior, double alpha,
                              const Interval* start) {
  return SolveHpd(posterior, alpha, [&](HpdResult* out) -> Status {
    // Clip the carried-over interval into the domain; limiting-case
    // endpoints (exact 0 or 1) are nudged inward so the constraint
    // gradient stays nonzero at the start.
    Interval seed;
    if (start != nullptr) {
      seed = Interval{std::clamp(start->lower, 1e-9, 1.0 - 1e-9),
                      std::clamp(start->upper, 1e-9, 1.0 - 1e-9)};
    }
    if (start == nullptr || !(seed.Width() > 1e-9)) {
      out->quantile_evals += 2;
      KGACC_ASSIGN_OR_RETURN(seed, EqualTailedInterval(posterior, alpha));
    }
    // A basin exit (pinned endpoint, residual growth, singular or
    // non-finite system) falls through to the 1-D root, which needs no
    // start.
    if (TryHpdNewton(posterior, alpha, seed, out)) return Status::OK();
    return HpdViaOneDim(posterior, alpha, out);
  });
}

Result<HpdResult> HpdIntervalByRoot(const BetaDistribution& posterior,
                                    double alpha) {
  return SolveHpd(posterior, alpha, [&](HpdResult* out) {
    return HpdViaOneDim(posterior, alpha, out);
  });
}

}  // namespace kgacc
