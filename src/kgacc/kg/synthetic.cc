#include "kgacc/kg/synthetic.h"

#include <algorithm>
#include <cmath>

#include "kgacc/util/check.h"
#include "kgacc/util/random.h"

namespace kgacc {

namespace {

// Domain-separation constants for the independent hash streams.
constexpr uint64_t kSizeStream = 0x5a17e5a17e5a17e5ULL;
constexpr uint64_t kClusterSalt = 0xc1a5c1a5c1a5c1a5ULL;
constexpr uint64_t kLabelSalt = 0x1abe11abe11abe1ULL;
constexpr uint64_t kRoundSalt = 0x20a4d20a4d20a4dULL;
constexpr uint64_t kExactAccuracyLimit = 32ull * 1000 * 1000;

/// p_c ~ Beta(mu*k, (1-mu)*k), k = (1-rho)/rho, drawn from a per-cluster
/// stream; the degenerate accuracies 0 and 1 draw nothing.
double DrawBetaClusterAccuracy(const SyntheticKgConfig& config,
                               uint64_t cluster) {
  const double mu = config.accuracy;
  if (mu <= 0.0) return 0.0;
  if (mu >= 1.0) return 1.0;
  const double rho = config.intra_cluster_rho;
  const double k = (1.0 - rho) / rho;
  Rng rng(Mix64(config.seed ^ kClusterSalt ^ (cluster * 2 + 1)));
  return rng.Beta(mu * k, (1.0 - mu) * k);
}

}  // namespace

Result<SyntheticKg> SyntheticKg::Create(const SyntheticKgConfig& config) {
  if (config.num_clusters == 0) {
    return Status::InvalidArgument("synthetic KG needs at least one cluster");
  }
  if (!(config.mean_cluster_size >= 1.0)) {
    return Status::InvalidArgument("mean cluster size must be >= 1");
  }
  if (!(config.accuracy >= 0.0) || !(config.accuracy <= 1.0)) {
    return Status::OutOfRange("accuracy must be in [0,1]");
  }
  if (config.label_model == LabelModel::kBetaMixture &&
      (!(config.intra_cluster_rho > 0.0) || !(config.intra_cluster_rho < 1.0))) {
    return Status::OutOfRange(
        "beta-mixture label model requires intra_cluster_rho in (0,1)");
  }
  if (config.exact_total_triples != 0 &&
      config.exact_total_triples < config.num_clusters) {
    return Status::InvalidArgument(
        "exact_total_triples smaller than num_clusters (clusters are "
        "non-empty)");
  }

  SyntheticKg kg(config);
  const uint64_t n = config.num_clusters;
  std::vector<uint64_t> sizes(n, 1);

  if (config.size_model == ClusterSizeModel::kFixed) {
    const uint64_t fixed = static_cast<uint64_t>(
        std::max<int64_t>(1, std::llround(config.mean_cluster_size)));
    std::fill(sizes.begin(), sizes.end(), fixed);
  } else if (config.size_model == ClusterSizeModel::kZipf) {
    // Solve for the exponent s with mean(k^-s over 1..cap) matching the
    // target. The mean is decreasing in s; bisect on [1.01, 12].
    const uint64_t cap = kZipfMaxClusterSize;
    auto mean_for = [cap](double s) {
      double mass = 0.0, weighted = 0.0;
      for (uint64_t k = 1; k <= cap; ++k) {
        const double w = std::pow(static_cast<double>(k), -s);
        mass += w;
        weighted += w * static_cast<double>(k);
      }
      return weighted / mass;
    };
    double lo_s = 1.01, hi_s = 12.0;
    if (config.mean_cluster_size >= mean_for(lo_s)) {
      return Status::InvalidArgument(
          "zipf mean_cluster_size unreachable under the size cap");
    }
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo_s + hi_s);
      (mean_for(mid) > config.mean_cluster_size ? lo_s : hi_s) = mid;
    }
    const double s = 0.5 * (lo_s + hi_s);
    // Precompute the CDF and invert per-cluster hashes against it.
    std::vector<double> cdf(cap);
    double mass = 0.0;
    for (uint64_t k = 1; k <= cap; ++k) {
      mass += std::pow(static_cast<double>(k), -s);
      cdf[k - 1] = mass;
    }
    for (double& v : cdf) v /= mass;
    for (uint64_t c = 0; c < n; ++c) {
      const double u =
          ToUnitDouble(Mix64(config.seed ^ kSizeStream ^ (c * 2 + 1)));
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      sizes[c] = static_cast<uint64_t>(it - cdf.begin()) + 1;
    }
  } else {
    // Shifted geometric: size = 1 + G, E[G] = mean - 1, via inversion from
    // a per-cluster hash so regeneration is O(1)-seekable in principle.
    const double mean_extra = config.mean_cluster_size - 1.0;
    if (mean_extra > 0.0) {
      const double p = 1.0 / (mean_extra + 1.0);  // success prob of geometric
      const double log_q = std::log1p(-p);
      for (uint64_t c = 0; c < n; ++c) {
        const double u =
            ToUnitDouble(Mix64(config.seed ^ kSizeStream ^ (c * 2 + 1)));
        const uint64_t extra = static_cast<uint64_t>(
            std::floor(std::log1p(-u) / log_q));
        sizes[c] = 1 + extra;
      }
    }
  }

  if (config.exact_total_triples != 0) {
    // Spread the discrepancy in +-1 steps across clusters.
    uint64_t total = 0;
    for (uint64_t s : sizes) total += s;
    uint64_t c = 0;
    while (total < config.exact_total_triples) {
      ++sizes[c % n];
      ++total;
      ++c;
    }
    while (total > config.exact_total_triples) {
      if (sizes[c % n] > 1) {
        --sizes[c % n];
        --total;
      }
      ++c;
    }
  }

  kg.prefix_.resize(n + 1);
  kg.prefix_[0] = 0;
  for (uint64_t c = 0; c < n; ++c) kg.prefix_[c + 1] = kg.prefix_[c] + sizes[c];
  if (config.label_model == LabelModel::kBetaMixture) {
    kg.beta_accuracy_.resize(n);
    for (uint64_t c = 0; c < n; ++c) {
      kg.beta_accuracy_[c] = DrawBetaClusterAccuracy(config, c);
    }
  }
  return kg;
}

double SyntheticKg::ClusterAccuracy(uint64_t cluster) const {
  switch (config_.label_model) {
    case LabelModel::kIid:
      return config_.accuracy;
    case LabelModel::kBetaMixture:
      return beta_accuracy_[cluster];
    case LabelModel::kBalanced: {
      const uint64_t m = cluster_size(cluster);
      const double exact = config_.accuracy * static_cast<double>(m);
      uint64_t tau = static_cast<uint64_t>(std::floor(exact));
      const double frac = exact - static_cast<double>(tau);
      const double u =
          ToUnitDouble(Mix64(config_.seed ^ kRoundSalt ^ (cluster * 2 + 1)));
      if (u < frac) ++tau;
      return static_cast<double>(tau) / static_cast<double>(m);
    }
  }
  return config_.accuracy;
}

bool SyntheticKg::label(uint64_t cluster, uint64_t offset) const {
  KGACC_DCHECK(cluster < num_clusters());
  KGACC_DCHECK(offset < cluster_size(cluster));
  switch (config_.label_model) {
    case LabelModel::kIid: {
      const uint64_t id = prefix_[cluster] + offset;
      return ToUnitDouble(Mix64(config_.seed ^ kLabelSalt ^ (id * 2 + 1))) <
             config_.accuracy;
    }
    case LabelModel::kBetaMixture: {
      const double pc = ClusterAccuracy(cluster);
      const uint64_t id = prefix_[cluster] + offset;
      return ToUnitDouble(Mix64(config_.seed ^ kLabelSalt ^ (id * 2 + 1))) < pc;
    }
    case LabelModel::kBalanced: {
      const uint64_t m = cluster_size(cluster);
      const uint64_t tau = static_cast<uint64_t>(
          std::llround(ClusterAccuracy(cluster) * static_cast<double>(m)));
      // Rotate offsets by a per-cluster hash so correct triples are not
      // always the low offsets; (o + h) mod m is a permutation of 0..m-1.
      const uint64_t h =
          Mix64(config_.seed ^ kLabelSalt ^ (cluster * 2 + 1)) % m;
      return ((offset + h) % m) < tau;
    }
  }
  return false;
}

TripleRef SyntheticKg::TripleAt(uint64_t global_index) const {
  KGACC_DCHECK(global_index < num_triples());
  const auto it =
      std::upper_bound(prefix_.begin(), prefix_.end(), global_index);
  const uint64_t cluster = static_cast<uint64_t>(it - prefix_.begin()) - 1;
  return TripleRef{cluster, global_index - prefix_[cluster]};
}

double SyntheticKg::TrueAccuracy() const {
  if (accuracy_cached_) return cached_accuracy_;
  if (num_triples() > kExactAccuracyLimit) return config_.accuracy;
  uint64_t correct = 0;
  for (uint64_t c = 0; c < num_clusters(); ++c) {
    const uint64_t m = cluster_size(c);
    for (uint64_t o = 0; o < m; ++o) correct += label(c, o) ? 1 : 0;
  }
  cached_accuracy_ =
      static_cast<double>(correct) / static_cast<double>(num_triples());
  accuracy_cached_ = true;
  return cached_accuracy_;
}

}  // namespace kgacc
