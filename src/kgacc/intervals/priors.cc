#include "kgacc/intervals/priors.h"

#include <cmath>
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
  if (Status status = CheckPrior(prior); !status.ok()) return status;
  return prior;
}

Status CheckPrior(const BetaPrior& prior) {
  // A prior built from weight w has a + b below w * (1 + 2 eps): 1 -
  // accuracy, the two products and their sum each round by at most eps/2.
  constexpr double kRounded =
      kMaxPriorWeight * (1.0 + 2.0 * std::numeric_limits<double>::epsilon());
  char detail[96];
  if (!(std::isfinite(prior.a) && prior.a > 0.0 && std::isfinite(prior.b) &&
        prior.b > 0.0)) {
    std::snprintf(detail, sizeof(detail),
                  "a = %g and b = %g must be finite and positive", prior.a,
                  prior.b);
  } else if (prior.a + prior.b <= kRounded) {
    return Status::OK();
  } else {
    std::snprintf(detail, sizeof(detail), "a + b = %g exceeds %g",
                  prior.a + prior.b, kMaxPriorWeight);
  }
  return Status::InvalidArgument("prior '" + prior.name + "': " + detail);
}

std::vector<BetaPrior> DefaultUninformativePriors() {
  return {KermanPrior(), JeffreysPrior(), UniformPrior()};
}

}  // namespace kgacc
