#ifndef KGACC_INTERVALS_FREQUENTIST_H_
#define KGACC_INTERVALS_FREQUENTIST_H_

#include "kgacc/estimate/accumulator.h"
#include "kgacc/intervals/interval.h"
#include "kgacc/util/status.h"

/// \file frequentist.h
/// Frequentist confidence-interval baselines (§3): the Wald interval used
/// by Gao et al. VLDB'19 and the Wilson interval used by Marchesin &
/// Silvello VLDB'24 (the state of the art this paper improves on), plus
/// Agresti-Coull and exact Clopper-Pearson for the comparison appendix.

namespace kgacc {

/// 1-alpha Wald interval (Eq. 5): mu +- z_{alpha/2} sqrt(V(mu)).
/// Design-agnostic — the estimated variance is taken from the estimate, so
/// TWCS estimates plug in directly. May overshoot [0, 1] and collapses to
/// zero width when the estimated variance is zero (the §3.3 fallacies).
Result<Interval> WaldInterval(const AccuracyEstimate& estimate, double alpha);

/// 1-alpha Wilson interval (Eq. 7) from an (effective) sample: relocated
/// center plus corrected deviation. `n` may be fractional — complex designs
/// pass the design-effect-adjusted n_eff (§3.2).
Result<Interval> WilsonInterval(double mu, double n, double alpha);

/// 1-alpha Agresti-Coull interval: Wald on the pseudo-sample
/// (tau + z^2/2, n + z^2). Additional baseline.
Result<Interval> AgrestiCoullInterval(double mu, double n, double alpha);

/// Exact 1-alpha Clopper-Pearson interval from integer counts, via beta
/// quantiles. Additional (conservative) baseline.
Result<Interval> ClopperPearsonInterval(uint64_t tau, uint64_t n,
                                        double alpha);

}  // namespace kgacc

#endif  // KGACC_INTERVALS_FREQUENTIST_H_
