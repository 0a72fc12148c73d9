#ifndef KGACC_INTERVALS_AHPD_H_
#define KGACC_INTERVALS_AHPD_H_

#include <optional>
#include <vector>

#include "kgacc/intervals/credible.h"
#include "kgacc/intervals/priors.h"
#include "kgacc/util/status.h"

/// \file ahpd.h
/// The interval-selection core of the adaptive HPD algorithm (Algorithm 1,
/// lines 14-23): given the current annotation outcome, build one 1-alpha
/// HPD interval per competing prior and keep the shortest. The surrounding
/// sample-annotate-estimate loop lives in `eval/evaluator.h`.

namespace kgacc {

/// Outcome of one aHPD selection round.
struct AhpdChoice {
  /// The winning (shortest) 1-alpha HPD interval.
  Interval interval;
  /// Index into the prior set of the winner.
  size_t prior_index = 0;
  /// Posterior shape branch taken for the winner.
  BetaShape shape = BetaShape::kUnimodal;
};

/// One prior's warm-start carry: the last unimodal HPD interval and the
/// posterior it solved.
struct HpdCarry {
  Interval interval;
  BetaDistribution posterior;
};

/// Cross-step warm-start carry for iterative interval construction: per
/// prior, the last unimodal HPD solve, if any. Thread one instance through
/// the successive `AhpdSelect` (or `BuildInterval`) calls of one evaluation
/// run; each step then seeds the Newton solve from the carried interval,
/// shifted from the carried posterior's mode to the new one and scaled by
/// the ratio of their standard deviations, instead of paying two ET
/// quantile solves per prior. Do not share one state across interleaved
/// runs.
struct AhpdWarmState {
  /// Parallel to the prior set; resized (and cleared) on size change.
  std::vector<std::optional<HpdCarry>> priors;

  /// Aligns the carry with a prior set of `num_priors` entries, dropping
  /// every stale carry when the set changed shape.
  void Sync(size_t num_priors) {
    if (priors.size() != num_priors) {
      priors.assign(num_priors, std::nullopt);
    }
  }
};

/// One prior's HPD with warm-start carry: when `*carry` holds a solve and
/// `posterior` is unimodal, seeds Newton at the carried interval moved
/// onto `posterior` (mode shift, standard-deviation scale), then stores the
/// new interval and posterior when it was unimodal (and clears the carry
/// otherwise). A null `carry` degrades to a plain `HpdInterval` call.
Result<HpdResult> HpdIntervalWarm(const BetaDistribution& posterior,
                                  double alpha, std::optional<HpdCarry>* carry);

/// Computes the per-prior posteriors Beta(a_i + tau, b_i + n - tau), their
/// 1-alpha HPD intervals, and returns the shortest (Alg. 1 line 23).
///
/// `tau` / `n` may be fractional: complex sampling designs pass the
/// design-effect-adjusted effective sample (Alg. 1 lines 11-13). The prior
/// set must be non-empty; there is no upper limit on its size. `warm`, when
/// given, carries the per-prior solutions across successive calls.
Result<AhpdChoice> AhpdSelect(const std::vector<BetaPrior>& priors,
                              double tau, double n, double alpha,
                              AhpdWarmState* warm = nullptr);

}  // namespace kgacc

#endif  // KGACC_INTERVALS_AHPD_H_
