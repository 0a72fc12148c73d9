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

void AliasTable::Pair(uint32_t* work, size_t num_small) {
  const size_t n = size_;
  double* const prob = prob_.get();
  uint32_t* const alias = alias_.get();
  // The large worklist is work[next_large, n), its top at next_large.
  size_t next_large = num_small;
  // One loop over (small s, large l) pairs. The current large's mass stays
  // in a register while it absorbs smalls from the top of the small stack;
  // once it drops below 1 its threshold is final, and it is the next small,
  // paired with the next large. That is the textbook pop-both-then-push-l-
  // back loop, the same operations in the same order: a bucket that stays
  // large would be popped again at once, and one that turns small is
  // pushed and then popped as the next small.
  if (num_small > 0 && next_large < n) {
    uint32_t l = work[next_large];
    double mass = prob[l];
    uint32_t s = work[--num_small];
    double small_mass = prob[s];
    for (;;) {
      alias[s] = l;
      mass = (mass + small_mass) - 1.0;
      if (mass < 1.0) {
        if (++next_large == n) {
          // No large left to absorb it: a residual small.
          prob[l] = 1.0;
          alias[l] = l;
          break;
        }
        prob[l] = mass;
        s = l;
        small_mass = mass;
        l = work[next_large];
        mass = prob[l];
      } else {
        // Out of smalls, l stays large: the residual loop finishes it.
        if (num_small == 0) break;
        s = work[--num_small];
        small_mass = prob[s];
      }
    }
  }
  // Residuals are exactly-1 buckets up to floating point error.
  for (size_t k = 0; k < num_small; ++k) {
    prob[work[k]] = 1.0;
    alias[work[k]] = work[k];
  }
  for (size_t k = next_large; k < n; ++k) {
    prob[work[k]] = 1.0;
    alias[work[k]] = work[k];
  }
}

uint64_t AliasTable::Sample(Rng* rng) const {
  const uint64_t bucket = rng->UniformInt(size_);
  return rng->Uniform() < prob_[bucket] ? bucket : alias_[bucket];
}

}  // namespace kgacc
