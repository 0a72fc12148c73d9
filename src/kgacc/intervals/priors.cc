#include "kgacc/intervals/priors.h"

#include <cmath>
#include <cstdio>

namespace kgacc {

Result<BetaDistribution> BetaPrior::Posterior(double tau, double n) const {
  if (!(n >= 0.0) || !(tau >= 0.0) || tau > n) {
    return Status::InvalidArgument(
        "posterior update requires 0 <= tau <= n");
  }
  return BetaDistribution::Create(a + tau, b + (n - tau));
}

BetaPrior KermanPrior() { return BetaPrior{"Kerman", 1.0 / 3.0, 1.0 / 3.0}; }

BetaPrior JeffreysPrior() { return BetaPrior{"Jeffreys", 0.5, 0.5}; }

BetaPrior UniformPrior() { return BetaPrior{"Uniform", 1.0, 1.0}; }

Result<BetaPrior> InformativePrior(double accuracy, double weight,
                                   std::string name) {
  if (!(accuracy > 0.0) || !(accuracy < 1.0)) {
    return Status::OutOfRange("informative prior accuracy must be in (0,1)");
  }
  if (!(weight > 0.0)) {
    return Status::InvalidArgument("informative prior weight must be > 0");
  }
  BetaPrior prior;
  prior.a = accuracy * weight;
  prior.b = (1.0 - accuracy) * weight;
  // Every Beta built on this prior takes its variance from a * b; past the
  // largest double that product is inf, the variance NaN, and the audit
  // would fail far from the flag that caused it (at accuracy 0.8 the
  // heaviest weight that fits is about 3e154).
  if (!std::isfinite(prior.a * prior.b)) {
    char spec[64];
    std::snprintf(spec, sizeof(spec), "%g:%g", accuracy, weight);
    return Status::InvalidArgument(
        "informative prior " +
        (name.empty() ? std::string(spec) : "'" + name + "' (" + spec + ")") +
        ": weight too large, Beta shape product a * b overflows");
  }
  prior.name = name.empty()
                   ? "Informative(" + std::to_string(accuracy) + "," +
                         std::to_string(weight) + ")"
                   : std::move(name);
  return prior;
}

std::vector<BetaPrior> DefaultUninformativePriors() {
  return {KermanPrior(), JeffreysPrior(), UniformPrior()};
}

}  // namespace kgacc
