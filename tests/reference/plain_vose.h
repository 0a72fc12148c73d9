#ifndef KGACC_REFERENCE_PLAIN_VOSE_H_
#define KGACC_REFERENCE_PLAIN_VOSE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "kgacc/util/random.h"

/// \file plain_vose.h
/// Textbook Walker/Vose alias construction (M. D. Vose, IEEE TSE 1991) with
/// separate weight, scaled and worklist vectors. No sampler builds its
/// table this way; the library's one-pass `AliasTable` (kgacc/util/random.h)
/// must equal it bit for bit, and the tests compare the two bucket by
/// bucket.

namespace kgacc {

struct PlainVose {
  std::vector<double> prob;
  std::vector<uint32_t> alias;

  explicit PlainVose(const std::vector<double>& weights) {
    const size_t n = weights.size();
    double total = 0.0;
    for (double w : weights) total += w;
    prob.resize(n);
    alias.resize(n);
    std::vector<double> scaled(n);
    for (size_t i = 0; i < n; ++i) {
      const double normalized = weights[i] / total;
      scaled[i] = normalized * static_cast<double>(n);
    }
    std::vector<uint32_t> small, large;
    for (size_t i = 0; i < n; ++i) {
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const uint32_t s = small.back();
      small.pop_back();
      const uint32_t l = large.back();
      large.pop_back();
      prob[s] = scaled[s];
      alias[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    for (uint32_t i : large) {
      prob[i] = 1.0;
      alias[i] = i;
    }
    for (uint32_t i : small) {
      prob[i] = 1.0;
      alias[i] = i;
    }
  }

  /// The reference over integer counts, each weight the count as a double.
  static PlainVose FromCounts(const std::vector<uint64_t>& counts) {
    return PlainVose(std::vector<double>(counts.begin(), counts.end()));
  }

  /// First bucket whose threshold bits or alias differ from `table`'s, or
  /// the table size when every bucket matches (a size mismatch reports 0).
  size_t FirstMismatch(const AliasTable& table) const {
    if (table.size() != prob.size()) return 0;
    for (size_t b = 0; b < prob.size(); ++b) {
      const double got = table.threshold(b);
      if (std::memcmp(&got, &prob[b], sizeof(double)) != 0 ||
          table.alias(b) != alias[b]) {
        return b;
      }
    }
    return prob.size();
  }
};

}  // namespace kgacc

#endif  // KGACC_REFERENCE_PLAIN_VOSE_H_
