#ifndef KGACC_UTIL_RANDOM_H_
#define KGACC_UTIL_RANDOM_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
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
/// with fixed integer weights. Used for the probability-proportional-to-size
/// first stage of TWCS and WCS: the outcomes are clusters, possibly
/// millions of them, and each weight is a cluster's triple count.
class AliasTable {
 public:
  /// Builds the table over outcomes 0 .. n-1 with weights `count(i)`,
  /// reading each count once. Contract: 0 < n < 2^32, and the counts sum
  /// exactly to `total`, with 0 < total <= 2^53 (a KG knows its triple
  /// count). Every partial sum of such counts is exact in a double, so the
  /// table is the textbook Vose build over the counts as doubles, bit for
  /// bit. A `count` that breaks the sum aborts instead of building a skewed
  /// table. O(n) time and memory; the O(n) buffers are never zero-filled,
  /// since the build writes every element before reading it.
  template <typename CountFn>
    requires std::invocable<CountFn&, size_t>
  AliasTable(size_t n, uint64_t total, CountFn count)
      : size_(n),
        prob_(std::make_unique_for_overwrite<double[]>(n)),
        alias_(std::make_unique_for_overwrite<uint32_t[]>(n)) {
    KGACC_CHECK(n > 0 && n <= UINT32_MAX);
    KGACC_CHECK(total > 0 && total <= (uint64_t{1} << 53));
    // One pass scales every weight so the average bucket holds probability
    // 1 and sorts it onto Vose's "small" (scaled < 1) or "large" worklist.
    // The two share one buffer: small grows up from the front, large down
    // from the back.
    const auto work = std::make_unique_for_overwrite<uint32_t[]>(n);
    const double scale_total = static_cast<double>(total);
    const double scale_n = static_cast<double>(n);
    size_t num_small = 0;
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t c = count(i);
      sum += c;
      const double p = (static_cast<double>(c) / scale_total) * scale_n;
      prob_[i] = p;
      // Branch-free push: write i to both stack tops (both lie in the free
      // gap between the stacks) and advance only the one it belongs to.
      work[num_small] = static_cast<uint32_t>(i);
      work[n - 1 - (i - num_small)] = static_cast<uint32_t>(i);
      num_small += p < 1.0;
    }
    KGACC_CHECK(sum == total);
    Pair(work.get(), num_small);
  }

  /// Draws an index with probability proportional to its weight.
  uint64_t Sample(Rng* rng) const;

  /// Number of outcomes (= buckets).
  size_t size() const { return size_; }

  /// Bucket `b`'s acceptance threshold: a draw landing in bucket b keeps
  /// outcome b with this probability, else takes `alias(b)`.
  double threshold(size_t b) const { return prob_[b]; }
  /// Bucket `b`'s fallback outcome.
  uint32_t alias(size_t b) const { return alias_[b]; }

 private:
  /// Vose's pairing over the scaled weights in `prob_`: `work` holds the
  /// first `num_small` small indices from the front and every large one
  /// from the back. Fills `alias_` and leaves the final thresholds.
  void Pair(uint32_t* work, size_t num_small);

  size_t size_;
  std::unique_ptr<double[]> prob_;     // Acceptance threshold per bucket.
  std::unique_ptr<uint32_t[]> alias_;  // Fallback outcome per bucket.
};

}  // namespace kgacc

#endif  // KGACC_UTIL_RANDOM_H_
