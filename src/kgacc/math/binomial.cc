#include "kgacc/math/binomial.h"

#include <cmath>

#include "kgacc/math/special.h"

namespace kgacc {

namespace {

Status ValidateBinomial(int64_t k, int64_t n, double p, bool check_k) {
  if (n < 0) return Status::InvalidArgument("binomial n must be >= 0");
  if (!(p >= 0.0) || !(p <= 1.0)) {
    return Status::OutOfRange("binomial p must be in [0,1]");
  }
  if (check_k && (k < 0 || k > n)) {
    return Status::OutOfRange("binomial k must be in [0,n]");
  }
  return Status::OK();
}

}  // namespace

Result<double> BinomialLogPmf(int64_t k, int64_t n, double p) {
  KGACC_RETURN_IF_ERROR(ValidateBinomial(k, n, p, /*check_k=*/true));
  if (p == 0.0) {
    return k == 0 ? 0.0 : -std::numeric_limits<double>::infinity();
  }
  if (p == 1.0) {
    return k == n ? 0.0 : -std::numeric_limits<double>::infinity();
  }
  const double kd = static_cast<double>(k);
  const double nd = static_cast<double>(n);
  const double log_choose = LogGamma(nd + 1.0) - LogGamma(kd + 1.0) -
                            LogGamma(nd - kd + 1.0);
  return log_choose + kd * std::log(p) + (nd - kd) * std::log1p(-p);
}

Result<double> BinomialPmf(int64_t k, int64_t n, double p) {
  KGACC_ASSIGN_OR_RETURN(const double lp, BinomialLogPmf(k, n, p));
  return std::exp(lp);
}

Result<double> BinomialCdf(int64_t k, int64_t n, double p) {
  KGACC_RETURN_IF_ERROR(ValidateBinomial(k, n, p, /*check_k=*/false));
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  if (p == 0.0) return 1.0;
  if (p == 1.0) return 0.0;  // k < n here.
  // P(X <= k) = I_{1-p}(n-k, k+1).
  return RegularizedIncompleteBeta(1.0 - p, static_cast<double>(n - k),
                                   static_cast<double>(k + 1));
}

int64_t BinomialSample(int64_t n, double p, Rng* rng) {
  KGACC_CHECK(n >= 0 && p >= 0.0 && p <= 1.0);
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  // Exploit symmetry so the waiting-time path below sees p <= 1/2.
  if (p > 0.5) return n - BinomialSample(n, 1.0 - p, rng);

  if (n <= 64) {
    int64_t count = 0;
    for (int64_t i = 0; i < n; ++i) count += rng->Bernoulli(p) ? 1 : 0;
    return count;
  }
  if (static_cast<double>(n) * p < 32.0) {
    // Geometric waiting-time (BG) method: skip ahead by Geom(p) gaps.
    const double log_q = std::log1p(-p);
    int64_t count = 0;
    double skipped = 0.0;
    for (;;) {
      const double g = std::floor(std::log(1.0 - rng->Uniform()) / log_q) + 1;
      skipped += g;
      if (skipped > static_cast<double>(n)) return count;
      ++count;
    }
  }
  // Inversion from the mode, walking outward. Expected O(sqrt(n p (1-p))).
  const int64_t mode = static_cast<int64_t>((n + 1) * p);
  const double log_pmf_mode = BinomialLogPmf(mode, n, p).value();
  const double pmf_mode = std::exp(log_pmf_mode);
  // Accumulate total mass outward from the mode until u is consumed.
  double u = rng->Uniform();
  // Subtract the mode's own mass first.
  if (u < pmf_mode) return mode;
  u -= pmf_mode;
  double lo_pmf = pmf_mode, hi_pmf = pmf_mode;
  int64_t lo = mode, hi = mode;
  while (lo > 0 || hi < n) {
    if (hi < n) {
      // p(k+1) = p(k) * (n-k)/(k+1) * p/(1-p).
      hi_pmf *= static_cast<double>(n - hi) / static_cast<double>(hi + 1) * p /
                (1.0 - p);
      ++hi;
      if (u < hi_pmf) return hi;
      u -= hi_pmf;
    }
    if (lo > 0) {
      // p(k-1) = p(k) * k/(n-k+1) * (1-p)/p.
      lo_pmf *= static_cast<double>(lo) / static_cast<double>(n - lo + 1) *
                (1.0 - p) / p;
      --lo;
      if (u < lo_pmf) return lo;
      u -= lo_pmf;
    }
  }
  return mode;  // Numerically exhausted the mass; return the center.
}

}  // namespace kgacc
