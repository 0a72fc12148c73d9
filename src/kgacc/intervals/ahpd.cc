#include "kgacc/intervals/ahpd.h"

#include <cmath>

namespace kgacc {

namespace {

/// The carried interval moved onto `posterior`: each endpoint keeps its
/// offset from the mode in units of the posterior standard deviation,
/// l' = m1 - (m0 - l) s1/s0 and u' = m1 + (u - m0) s1/s0. One batch moves
/// the posterior mostly by that shift and scale, so Newton starts near the
/// new solution rather than at the old one.
Interval PredictStart(const HpdCarry& carry,
                      const BetaDistribution& posterior) {
  const double m0 = carry.posterior.Mode();
  const double m1 = posterior.Mode();
  const double scale =
      std::sqrt(posterior.Variance() / carry.posterior.Variance());
  return Interval{m1 - (m0 - carry.interval.lower) * scale,
                  m1 + (carry.interval.upper - m0) * scale};
}

}  // namespace

Result<HpdResult> HpdIntervalWarm(const BetaDistribution& posterior,
                                  double alpha,
                                  std::optional<HpdCarry>* carry) {
  if (carry == nullptr) return HpdInterval(posterior, alpha);
  // A carry seeds the solve whenever both the previous and the new
  // posterior are unimodal (limiting cases ignore the start). Newton
  // reports a basin exit instead of stalling on a far-off start, so the
  // prediction is usable unconditionally; `HpdInterval` clips it into the
  // domain.
  std::optional<Interval> start;
  if (carry->has_value() && posterior.Shape() == BetaShape::kUnimodal) {
    start = PredictStart(**carry, posterior);
  }
  Result<HpdResult> result =
      HpdInterval(posterior, alpha, start ? &*start : nullptr);
  if (result.ok() && result->shape == BetaShape::kUnimodal) {
    *carry = HpdCarry{result->interval, posterior};
  } else {
    carry->reset();
  }
  return result;
}

Result<AhpdChoice> AhpdSelect(const std::vector<BetaPrior>& priors,
                              double tau, double n, double alpha,
                              AhpdWarmState* warm) {
  if (priors.empty()) {
    return Status::InvalidArgument("aHPD requires at least one prior");
  }
  if (warm != nullptr) warm->Sync(priors.size());
  AhpdChoice choice;
  for (size_t i = 0; i < priors.size(); ++i) {
    KGACC_ASSIGN_OR_RETURN(const BetaDistribution posterior,
                           priors[i].Posterior(tau, n));
    KGACC_ASSIGN_OR_RETURN(
        const HpdResult hpd,
        HpdIntervalWarm(posterior, alpha, warm ? &warm->priors[i] : nullptr));
    if (i == 0 || hpd.interval.Width() < choice.interval.Width()) {
      choice.interval = hpd.interval;
      choice.prior_index = i;
      choice.shape = hpd.shape;
    }
  }
  return choice;
}

}  // namespace kgacc
