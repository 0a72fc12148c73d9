#include "kgacc/intervals/priors.h"

#include <cstdio>
#include <limits>

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
  prior.name = name.empty()
                   ? "Informative(" + std::to_string(accuracy) + "," +
                         std::to_string(weight) + ")"
                   : std::move(name);
  prior.a = accuracy * weight;
  prior.b = (1.0 - accuracy) * weight;
  if (Status status = CheckPriorWeight(prior); !status.ok()) return status;
  return prior;
}

Status CheckPriorWeight(const BetaPrior& prior) {
  // A prior built from weight w has a + b below w * (1 + 2 eps): 1 -
  // accuracy, the two products and their sum each round by at most eps/2.
  constexpr double kRounded =
      kMaxPriorWeight * (1.0 + 2.0 * std::numeric_limits<double>::epsilon());
  if (prior.a + prior.b <= kRounded) return Status::OK();
  char detail[96];
  std::snprintf(detail, sizeof(detail), "a + b = %g exceeds %g",
                prior.a + prior.b, kMaxPriorWeight);
  return Status::InvalidArgument("prior '" + prior.name + "': " + detail);
}

std::vector<BetaPrior> DefaultUninformativePriors() {
  return {KermanPrior(), JeffreysPrior(), UniformPrior()};
}

}  // namespace kgacc
