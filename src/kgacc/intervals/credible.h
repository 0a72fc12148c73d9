#ifndef KGACC_INTERVALS_CREDIBLE_H_
#define KGACC_INTERVALS_CREDIBLE_H_

#include <cstdint>

#include "kgacc/intervals/interval.h"
#include "kgacc/math/beta.h"
#include "kgacc/util/status.h"

/// \file credible.h
/// Bayesian credible intervals on a beta posterior — the paper's core
/// contribution (§4): Equal-Tailed intervals (Eq. 9) and Highest Posterior
/// Density intervals, which Theorems 1-2 prove to be the shortest and
/// unique 1-alpha interval for every annotation scenario.

namespace kgacc {

/// Which code path produced an HPD interval.
enum class HpdPath {
  /// Monotone / U-shaped closed forms (no numeric solve).
  kLimiting,
  /// 2x2 Newton on the KKT system — the standard unimodal path.
  kNewton,
  /// The bracketed 1-D root (`HpdIntervalByRoot`, or after a Newton basin
  /// exit).
  kOneDim,
};

/// An HPD computation result with solver diagnostics.
struct HpdResult {
  Interval interval;
  /// Which posterior-shape branch produced the interval.
  BetaShape shape = BetaShape::kUnimodal;
  /// Outer iterations used by the numeric solver (0 for limiting cases);
  /// for a fallback solve this is Newton iterations + root iterations.
  int solver_iterations = 0;
  /// Solver path taken.
  HpdPath path = HpdPath::kLimiting;
  /// Beta-function evaluations this solve spent, across every path tried.
  /// A quantile counts as one evaluation even though the inverse-CDF solve
  /// internally iterates the incomplete beta several times, so these are
  /// lower bounds on incomplete-beta work — comparable across solvers.
  /// The kernel counters (`ThreadBetaKernelStatsSnapshot`, `math/special.h`)
  /// count every incomplete-beta call instead.
  int cdf_evals = 0;
  int pdf_evals = 0;
  int quantile_evals = 0;
  /// Newton convergence certificate: the residuals of the two KKT
  /// equations (coverage, log-density equality) at the returned endpoints.
  /// Zero for non-Newton paths.
  double kkt_coverage_residual = 0.0;
  double kkt_density_residual = 0.0;
};

/// Per-path tallies of the thread-local HPD solve statistics.
struct HpdPathTally {
  uint64_t solves = 0;
  uint64_t iterations = 0;
  uint64_t cdf_evals = 0;
  uint64_t pdf_evals = 0;
  uint64_t quantile_evals = 0;

  HpdPathTally& operator+=(const HpdPathTally& other) {
    solves += other.solves;
    iterations += other.iterations;
    cdf_evals += other.cdf_evals;
    pdf_evals += other.pdf_evals;
    quantile_evals += other.quantile_evals;
    return *this;
  }
};

/// Aggregate HPD solver counters for the calling thread, accumulated by
/// every successful `HpdInterval` and `HpdIntervalByRoot` on that thread.
/// Read/reset them around a measurement region to attribute incomplete-beta
/// work to solver paths; used by `bench_step_latency` to report per-solve
/// evaluation counts in BENCH_step.json.
struct HpdSolveStats {
  HpdPathTally limiting;
  HpdPathTally newton;
  /// Always zero: the SQP reference lives outside the library and tallies
  /// nothing. Both are kept only because kgbench reads them.
  HpdPathTally slsqp;
  HpdPathTally slsqp_fallback;
  HpdPathTally onedim;

  uint64_t total_solves() const {
    return limiting.solves + newton.solves + onedim.solves;
  }
  uint64_t total_beta_evals() const {
    uint64_t evals = 0;
    for (const HpdPathTally* t : {&limiting, &newton, &onedim}) {
      evals += t->cdf_evals + t->pdf_evals + t->quantile_evals;
    }
    return evals;
  }

  /// Merges another snapshot in (e.g. combining measurement windows);
  /// lives next to the tallies so a new field or path cannot silently
  /// drop out of aggregations.
  HpdSolveStats& operator+=(const HpdSolveStats& other) {
    limiting += other.limiting;
    newton += other.newton;
    onedim += other.onedim;
    return *this;
  }
};

/// Snapshot of this thread's counters since the last reset.
HpdSolveStats ThreadHpdStatsSnapshot();

/// Zeroes this thread's counters.
void ResetThreadHpdStats();

/// 1-alpha Equal-Tailed credible interval (Eq. 9):
/// [qBeta(alpha/2), qBeta(1 - alpha/2)] on the posterior.
Result<Interval> EqualTailedInterval(const BetaDistribution& posterior,
                                     double alpha);

/// 1-alpha Highest Posterior Density credible interval.
///
/// Dispatches on the posterior shape:
/// * interior unimodal — 2x2 Newton on Thm. 1's KKT system
///   {F(u) - F(l) = 1 - alpha, f(l) = f(u)} (`opt/newton_kkt.h`), falling
///   back to the bracketed 1-D root of `HpdIntervalByRoot` when the iterate
///   leaves the basin. Newton starts at `start` when, clipped into the
///   domain, it is a usable interval (positive width inside [0, 1]), and at
///   the ET interval otherwise (Alg. 1 line 20). In an iterative audit the
///   start is the warm carry's prediction (`HpdIntervalWarm`,
///   `intervals/ahpd.h`), which saves the two ET quantile solves;
/// * monotone decreasing (tau = 0 under an uninformative prior) —
///   [0, qBeta(1 - alpha)] (Eq. 11, Corollary 1/2);
/// * monotone increasing (tau = n) — [qBeta(alpha), 1] (Eq. 10);
/// * U-shaped (no data under a sub-uniform prior) — the density has no
///   single HPD *interval*; falls back to the ET interval.
Result<HpdResult> HpdInterval(const BetaDistribution& posterior, double alpha,
                              const Interval* start = nullptr);

/// `HpdInterval` with the interior unimodal case solved by the 1-D root
/// alone: u(l) = F^{-1}(F(l) + 1 - alpha) keeps the coverage exact, and
/// Brent's bracketed root finder solves the density condition
/// log f(l) = log f(u(l)) for the lower bound. The same code is Newton's
/// fallback; tallied as `onedim`.
Result<HpdResult> HpdIntervalByRoot(const BetaDistribution& posterior,
                                    double alpha);

}  // namespace kgacc

#endif  // KGACC_INTERVALS_CREDIBLE_H_
