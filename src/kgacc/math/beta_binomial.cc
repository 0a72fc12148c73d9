#include "kgacc/math/beta_binomial.h"

#include <cmath>
#include <limits>

#include "kgacc/math/binomial.h"
#include "kgacc/math/special.h"

namespace kgacc {

Result<BetaBinomial> BetaBinomial::Create(int64_t k, double a, double b) {
  if (k < 0) return Status::InvalidArgument("beta-binomial k must be >= 0");
  if (!(a > 0.0) || !(b > 0.0)) {
    return Status::InvalidArgument("beta-binomial shape parameters must be "
                                   "positive");
  }
  return BetaBinomial(k, a, b);
}

double BetaBinomial::LogPmf(int64_t x) const {
  if (x < 0 || x > k_) return -std::numeric_limits<double>::infinity();
  const double xd = static_cast<double>(x);
  const double kd = static_cast<double>(k_);
  // log C(k, x) + log B(x + a, k - x + b) - log B(a, b).
  const double log_choose = LogGamma(kd + 1.0) - LogGamma(xd + 1.0) -
                            LogGamma(kd - xd + 1.0);
  return log_choose + LogBeta(xd + a_, kd - xd + b_) - LogBeta(a_, b_);
}

double BetaBinomial::Pmf(int64_t x) const {
  const double lp = LogPmf(x);
  return std::isinf(lp) ? 0.0 : std::exp(lp);
}

double BetaBinomial::Cdf(int64_t x) const {
  if (x < 0) return 0.0;
  if (x >= k_) return 1.0;
  // Sum the smaller tail for accuracy and speed.
  if (x <= k_ / 2) {
    double total = 0.0;
    for (int64_t i = 0; i <= x; ++i) total += Pmf(i);
    return std::min(total, 1.0);
  }
  double upper = 0.0;
  for (int64_t i = x + 1; i <= k_; ++i) upper += Pmf(i);
  return std::max(1.0 - upper, 0.0);
}

int64_t BetaBinomial::Sample(Rng* rng) const {
  const double p = rng->Beta(a_, b_);
  return BinomialSample(k_, p, rng);
}

}  // namespace kgacc
