#ifndef KGACC_EVAL_PLANNING_H_
#define KGACC_EVAL_PLANNING_H_

#include "kgacc/eval/cost_model.h"
#include "kgacc/intervals/priors.h"
#include "kgacc/util/status.h"

/// \file planning.h
/// Pre-audit and mid-audit planning: how many annotations will this
/// evaluation need? The paper's framework stops adaptively; analysts still
/// need a *forecast* to size budgets and annotator pools (§6.5). These
/// routines answer that with the same machinery the intervals use —
/// Wilson's closed form for the frequentist baseline, and the aHPD
/// posterior-mean lookahead for the Bayesian path.

namespace kgacc {

/// Forecast of the remaining annotation effort.
struct SamplePlan {
  /// Total annotations projected (already-annotated + additional).
  uint64_t total_triples = 0;
  /// Additional annotations beyond the current sample.
  uint64_t additional_triples = 0;
  /// Projected manual effort for the additional annotations, in hours,
  /// assuming the given entity-sharing ratio.
  double additional_cost_hours = 0.0;
};

/// Smallest n with a Wilson MoE <= epsilon at the anticipated accuracy
/// `mu_guess` (closed form inverted numerically; exact to +-1).
Result<uint64_t> WilsonRequiredSampleSize(double mu_guess, double alpha,
                                          double epsilon);

/// Smallest n whose aHPD interval at the posterior-mean data path —
/// tau(n) = mu_guess * n — has MoE <= epsilon under the given priors.
/// This is the expected stopping point of Algorithm 1 when the estimate
/// stabilizes near mu_guess.
Result<uint64_t> AhpdRequiredSampleSize(const std::vector<BetaPrior>& priors,
                                        double mu_guess, double alpha,
                                        double epsilon);

/// Full plan starting from an existing annotation state (tau, n); pass
/// (0, 0) for a fresh audit. `entities_per_triple` is the expected fraction
/// of sampled triples introducing a new entity (1.0 for SRS on entity-rich
/// KGs, ~1/min(m, avg cluster) for TWCS). The cost is Eq. 12's c1 per new
/// entity plus c2 per triple, with one annotator per triple.
Result<SamplePlan> PlanAhpdAudit(const std::vector<BetaPrior>& priors,
                                 double mu_guess, double alpha,
                                 double epsilon, double tau, double n,
                                 double entities_per_triple = 1.0);

}  // namespace kgacc

#endif  // KGACC_EVAL_PLANNING_H_
