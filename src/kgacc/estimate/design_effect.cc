#include "kgacc/estimate/design_effect.h"

#include <algorithm>

namespace kgacc {

EffectiveSample ComputeEffectiveSample(const AccuracyEstimate& estimate) {
  EffectiveSample eff;
  const double n = static_cast<double>(estimate.n);
  const double srs_var = estimate.mu * (1.0 - estimate.mu) / n;
  if (srs_var <= 0.0 || estimate.variance <= 0.0 || estimate.num_units < 2) {
    eff.deff = 1.0;
  } else {
    eff.deff = std::clamp(estimate.variance / srs_var, kMinDesignEffect,
                          kMaxDesignEffect);
  }
  eff.n_eff = n / eff.deff;
  eff.tau_eff = estimate.mu * eff.n_eff;
  return eff;
}

}  // namespace kgacc
