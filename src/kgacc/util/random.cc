#include "kgacc/util/random.h"

#include <cmath>

#include "kgacc/util/flat_set.h"

namespace kgacc {

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * Uniform() - 1.0;
    v = 2.0 * Uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * f;
  has_spare_normal_ = true;
  return u * f;
}

double Rng::Gamma(double shape) {
  KGACC_DCHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia & Tsang, section 6).
    const double u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x, v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::Beta(double a, double b) {
  const double x = Gamma(a);
  const double y = Gamma(b);
  return x / (x + y);
}

void SampleWithoutReplacementAppend(uint64_t n, uint64_t k, Rng* rng,
                                    std::vector<uint64_t>* out,
                                    FlatSet64* scratch) {
  KGACC_CHECK(k <= n);
  out->reserve(out->size() + k);
  if (k == 0) return;
  // Robert Floyd's algorithm: for j = n-k .. n-1 draw t in [0, j]; insert t
  // unless already chosen, in which case insert j. Each subset of size k is
  // equally likely.
  scratch->clear();
  scratch->reserve(k);
  for (uint64_t j = n - k; j < n; ++j) {
    const uint64_t t = rng->UniformInt(j + 1);
    if (scratch->insert(t)) {
      out->push_back(t);
    } else {
      scratch->insert(j);
      out->push_back(j);
    }
  }
}

void AliasTable::Build() {
  const size_t n = prob_.size();
  KGACC_CHECK(n > 0);
  double total = 0.0;
  for (double w : prob_) {
    KGACC_CHECK(w >= 0.0);
    total += w;
  }
  KGACC_CHECK(total > 0.0);

  // Scale in place so the average bucket holds probability 1. A bucket's
  // scaled value is final once it leaves the worklist, so prob_ doubles as
  // Vose's working array.
  for (double& p : prob_) p = (p / total) * static_cast<double>(n);
  alias_.resize(n);

  // Vose's "small" (scaled < 1) and "large" worklists share one buffer:
  // small grows up from the front, large down from the back. Every index
  // sits in at most one of them, so they never meet.
  std::vector<uint32_t> work(n);
  size_t num_small = 0;
  size_t num_large = 0;
  auto push = [&](uint32_t i) {
    if (prob_[i] < 1.0) {
      work[num_small++] = i;
    } else {
      work[n - 1 - num_large++] = i;
    }
  };
  for (size_t i = 0; i < n; ++i) push(static_cast<uint32_t>(i));
  while (num_small > 0 && num_large > 0) {
    const uint32_t s = work[--num_small];
    const uint32_t l = work[n - num_large--];
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    push(l);
  }
  // Residuals are exactly-1 buckets up to floating point error.
  for (size_t k = 0; k < num_small; ++k) {
    prob_[work[k]] = 1.0;
    alias_[work[k]] = work[k];
  }
  for (size_t k = n - num_large; k < n; ++k) {
    prob_[work[k]] = 1.0;
    alias_[work[k]] = work[k];
  }
}

uint64_t AliasTable::Sample(Rng* rng) const {
  const uint64_t bucket = rng->UniformInt(prob_.size());
  return rng->Uniform() < prob_[bucket] ? bucket : alias_[bucket];
}

}  // namespace kgacc
