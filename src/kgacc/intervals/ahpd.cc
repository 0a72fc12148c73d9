#include "kgacc/intervals/ahpd.h"

#include "kgacc/util/codec.h"

namespace kgacc {

void SaveAhpdWarmState(const AhpdWarmState& state, ByteWriter* w) {
  w->PutVarint(state.priors.size());
  for (const std::optional<Interval>& carry : state.priors) {
    w->PutBool(carry.has_value());
    if (!carry) continue;
    w->PutDouble(carry->lower);
    w->PutDouble(carry->upper);
  }
}

Status LoadAhpdWarmState(ByteReader* r, AhpdWarmState* state) {
  // Each entry encodes at least its presence flag.
  KGACC_ASSIGN_OR_RETURN(const uint64_t count, r->Count(1));
  state->priors.assign(count, std::nullopt);
  for (std::optional<Interval>& carry : state->priors) {
    KGACC_ASSIGN_OR_RETURN(const bool present, r->Bool());
    if (!present) continue;
    Interval interval;
    KGACC_ASSIGN_OR_RETURN(interval.lower, r->Double());
    KGACC_ASSIGN_OR_RETURN(interval.upper, r->Double());
    carry = interval;
  }
  return Status::OK();
}

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
