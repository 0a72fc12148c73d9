#ifndef KGACC_UTIL_RANDOM_H_
#define KGACC_UTIL_RANDOM_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kgacc/util/check.h"

/// \file random.h
/// Deterministic, explicitly seeded randomness used across the library.
/// Every stochastic component in kgacc takes a 64-bit seed so that every
/// experiment replication is exactly reproducible.

namespace kgacc {

/// SplitMix64 finalizer step: a high-quality 64-bit mix function. Used both
/// to expand seeds and as a stateless counter-based hash (`SyntheticKg`
/// derives triple labels from `Mix64(seed ^ triple_id)`).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Maps a 64-bit word to a double uniformly distributed in [0, 1).
inline double ToUnitDouble(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// xoshiro256** pseudo-random generator (Blackman & Vigna). Small state,
/// excellent statistical quality, and — unlike std::mt19937 — identical
/// output across standard library implementations.
class Rng {
 public:
  /// Seeds the generator; two Rng instances with the same seed produce the
  /// same stream.
  explicit Rng(uint64_t seed) { Reseed(seed); }

  /// Resets the state as if freshly constructed with `seed`.
  void Reseed(uint64_t seed) {
    // Expand the single word into four via SplitMix64, per Vigna's advice.
    for (int i = 0; i < 4; ++i) {
      seed += 0x9e3779b97f4a7c15ULL;
      s_[i] = Mix64(seed);
    }
    // Guard against the (astronomically unlikely) all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  /// Next raw 64-bit word.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() { return ToUnitDouble(Next()); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). `n` must be positive. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  uint64_t UniformInt(uint64_t n) {
    KGACC_DCHECK(n > 0);
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < n) {
      uint64_t t = (0 - n) % n;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Bernoulli draw with success probability `p`.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal deviate (Marsaglia polar method).
  double Normal();

  /// Gamma(shape, 1) deviate (Marsaglia & Tsang). `shape` must be positive.
  double Gamma(double shape);

  /// Beta(a, b) deviate via two gamma draws.
  double Beta(double a, double b);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  // Spare value cache for the polar method.
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

class FlatSet64;

/// Draws `k` distinct indices uniformly from {0, ..., n-1} (sampling without
/// replacement) using Robert Floyd's algorithm: O(k) expected time and O(k)
/// memory, independent of `n`. Leaves existing elements of `*out` untouched
/// and writes the k drawn indices, in unspecified order, at its tail (the
/// flat `SampleBatch` offset buffer, where every unit's draw lands behind
/// the previous one's). `*scratch` tracks chosen indices and is cleared
/// first; both buffers are reused across calls.
void SampleWithoutReplacementAppend(uint64_t n, uint64_t k, Rng* rng,
                                    std::vector<uint64_t>* out,
                                    FlatSet64* scratch);

/// Walker/Vose alias table for O(1) sampling from a discrete distribution
/// with fixed weights. Used for the probability-proportional-to-size first
/// stage of TWCS, where the number of clusters can be in the millions.
class AliasTable {
 public:
  /// Builds the table from non-negative `weights`; at least one weight must
  /// be positive. O(n) time and memory.
  explicit AliasTable(const std::vector<double>& weights) : prob_(weights) {
    Build();
  }

  /// Builds the table from `n` weights `weight(0) .. weight(n - 1)` without
  /// materializing a weight vector (a PPS table over millions of clusters
  /// reads the sizes straight from the KG). Bit-identical to the vector
  /// constructor over the same weights.
  template <typename WeightFn>
    requires std::invocable<WeightFn&, size_t>
  AliasTable(size_t n, WeightFn weight) : prob_(n) {
    for (size_t i = 0; i < n; ++i) prob_[i] = weight(i);
    Build();
  }

  /// Draws an index with probability proportional to its weight.
  uint64_t Sample(Rng* rng) const;

  /// Number of outcomes (= buckets).
  size_t size() const { return prob_.size(); }

  /// Bucket `b`'s acceptance threshold: a draw landing in bucket b keeps
  /// outcome b with this probability, else takes `alias(b)`.
  double threshold(size_t b) const { return prob_[b]; }
  /// Bucket `b`'s fallback outcome.
  uint32_t alias(size_t b) const { return alias_[b]; }

 private:
  /// Turns the raw weights held in `prob_` into the Vose table in place.
  void Build();

  std::vector<double> prob_;      // Acceptance threshold per bucket.
  std::vector<uint32_t> alias_;   // Fallback outcome per bucket.
};

}  // namespace kgacc

#endif  // KGACC_UTIL_RANDOM_H_
