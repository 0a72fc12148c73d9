#include "kgacc/eval/planning.h"

#include <cmath>

#include "kgacc/intervals/ahpd.h"
#include "kgacc/intervals/frequentist.h"

namespace kgacc {

namespace {

constexpr uint64_t kPlanCap = 100000000;  // 100M: larger asks are config bugs.

Status ValidatePlanArgs(double mu_guess, double alpha, double epsilon) {
  if (!(mu_guess >= 0.0) || !(mu_guess <= 1.0)) {
    return Status::OutOfRange("mu_guess must be in [0,1]");
  }
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::OutOfRange("alpha must be in (0,1)");
  }
  if (!(epsilon > 0.0) || !(epsilon < 0.5)) {
    return Status::OutOfRange("epsilon must be in (0, 0.5)");
  }
  return Status::OK();
}

/// Exponential-then-binary search for the smallest n >= n_min satisfying
/// `small_enough(n)`, which must be monotone in n.
template <typename Fn>
Result<uint64_t> SmallestSatisfying(uint64_t n_min, Fn small_enough) {
  uint64_t hi = std::max<uint64_t>(n_min, 1);
  while (true) {
    KGACC_ASSIGN_OR_RETURN(const bool ok, small_enough(hi));
    if (ok) break;
    if (hi >= kPlanCap) {
      return Status::OutOfRange("required sample size exceeds 100M");
    }
    hi *= 2;
  }
  uint64_t lo = hi / 2 < n_min ? n_min : hi / 2;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    KGACC_ASSIGN_OR_RETURN(const bool ok, small_enough(mid));
    if (ok) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

}  // namespace

Result<uint64_t> WilsonRequiredSampleSize(double mu_guess, double alpha,
                                          double epsilon) {
  KGACC_RETURN_IF_ERROR(ValidatePlanArgs(mu_guess, alpha, epsilon));
  return SmallestSatisfying(1, [&](uint64_t n) -> Result<bool> {
    KGACC_ASSIGN_OR_RETURN(
        const Interval interval,
        WilsonInterval(mu_guess, static_cast<double>(n), alpha));
    return interval.Moe() <= epsilon;
  });
}

Result<uint64_t> AhpdRequiredSampleSize(const std::vector<BetaPrior>& priors,
                                        double mu_guess, double alpha,
                                        double epsilon) {
  KGACC_RETURN_IF_ERROR(ValidatePlanArgs(mu_guess, alpha, epsilon));
  if (priors.empty()) {
    return Status::InvalidArgument("planning requires at least one prior");
  }
  return SmallestSatisfying(1, [&](uint64_t n) -> Result<bool> {
    const double nd = static_cast<double>(n);
    KGACC_ASSIGN_OR_RETURN(
        const AhpdChoice choice,
        AhpdSelect(priors, mu_guess * nd, nd, alpha));
    return choice.interval.Moe() <= epsilon;
  });
}

Result<SamplePlan> PlanAhpdAudit(const std::vector<BetaPrior>& priors,
                                 double mu_guess, double alpha,
                                 double epsilon, double tau, double n,
                                 double entities_per_triple) {
  KGACC_RETURN_IF_ERROR(ValidatePlanArgs(mu_guess, alpha, epsilon));
  if (tau < 0.0 || n < 0.0 || tau > n) {
    return Status::InvalidArgument("need 0 <= tau <= n");
  }
  if (!(entities_per_triple > 0.0) || entities_per_triple > 1.0) {
    return Status::OutOfRange("entities_per_triple must be in (0, 1]");
  }

  // Project the data path: future annotations arrive at mu_guess, past ones
  // are fixed at (tau, n).
  KGACC_ASSIGN_OR_RETURN(
      const uint64_t total,
      SmallestSatisfying(
          static_cast<uint64_t>(std::ceil(n)),
          [&](uint64_t total_n) -> Result<bool> {
            const double extra = static_cast<double>(total_n) - n;
            const double proj_tau = tau + mu_guess * extra;
            KGACC_ASSIGN_OR_RETURN(
                const AhpdChoice choice,
                AhpdSelect(priors, proj_tau, static_cast<double>(total_n),
                           alpha));
            return choice.interval.Moe() <= epsilon;
          }));

  SamplePlan plan;
  plan.total_triples = total;
  const double extra =
      std::max(0.0, static_cast<double>(total) - n);
  plan.additional_triples = static_cast<uint64_t>(std::llround(extra));
  plan.additional_cost_hours =
      extra *
      (entities_per_triple * kEntityIdentificationSeconds +
       kFactVerificationSeconds) /
      3600.0;
  return plan;
}

}  // namespace kgacc
