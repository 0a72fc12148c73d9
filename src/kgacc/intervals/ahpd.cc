#include "kgacc/intervals/ahpd.h"

namespace kgacc {

Result<HpdResult> HpdIntervalWarm(const BetaDistribution& posterior,
                                  double alpha, const HpdOptions& options,
                                  std::optional<Interval>* carry) {
  if (carry == nullptr) return HpdInterval(posterior, alpha, options);
  // A carried interval seeds the solve whenever the previous solve was the
  // standard unimodal case; Newton reports a basin exit instead of
  // stalling on a far-off start, so the carry is usable unconditionally.
  HpdOptions local = options;
  if (carry->has_value()) local.warm_start = &**carry;
  Result<HpdResult> result = HpdInterval(posterior, alpha, local);
  if (result.ok() && result->shape == BetaShape::kUnimodal) {
    *carry = result->interval;
  } else {
    carry->reset();
  }
  return result;
}

Result<AhpdChoice> AhpdSelect(const std::vector<BetaPrior>& priors,
                              double tau, double n, double alpha,
                              const HpdOptions& options,
                              AhpdWarmState* warm) {
  if (priors.empty()) {
    return Status::InvalidArgument("aHPD requires at least one prior");
  }
  if (warm != nullptr) warm->Sync(priors.size());
  AhpdChoice choice;
  choice.candidates.reserve(priors.size());
  for (size_t i = 0; i < priors.size(); ++i) {
    KGACC_ASSIGN_OR_RETURN(const BetaDistribution posterior,
                           priors[i].Posterior(tau, n));
    KGACC_ASSIGN_OR_RETURN(
        const HpdResult hpd,
        HpdIntervalWarm(posterior, alpha, options,
                        warm ? &warm->priors[i] : nullptr));
    choice.candidates.push_back(hpd.interval);
    if (i == 0 || hpd.interval.Width() < choice.interval.Width()) {
      choice.interval = hpd.interval;
      choice.prior_index = i;
      choice.shape = hpd.shape;
    }
  }
  return choice;
}

}  // namespace kgacc
