#ifndef KGACC_KG_SYNTHETIC_H_
#define KGACC_KG_SYNTHETIC_H_

#include <vector>

#include "kgacc/kg/kg_view.h"
#include "kgacc/util/status.h"

/// \file synthetic.h
/// Procedural synthetic KG populations. Labels are *not* materialized:
/// the correctness of triple (c, o) is a pure function of (seed, c, o),
/// derived with counter-based hashing, so a 101M-triple SYN 100M instance
/// costs O(#clusters) memory (the cluster-size prefix array, plus each
/// cluster's drawn accuracy under `kBetaMixture`) instead of O(#triples).
/// This reproduces the paper's SYN 100M scalability workload
/// (§5, Table 1) without multi-GB materialization.

namespace kgacc {

/// How correctness labels are distributed across clusters.
enum class LabelModel {
  /// Labels are iid Bernoulli(mu) regardless of cluster — the SYN 100M
  /// setting ("the probability of a triple being true is a fixed rate").
  kIid,
  /// Each cluster draws its own accuracy p_c ~ Beta(mu*k, (1-mu)*k) with
  /// k = (1-rho)/rho; labels are iid Bernoulli(p_c) within the cluster.
  /// Produces intra-cluster correlation ICC ~= rho, the regime of real
  /// curated KGs (errors concentrate in some entities) where the TWCS
  /// design effect exceeds 1.
  kBetaMixture,
  /// Each cluster contains (a stochastic rounding of) mu * M_i correct
  /// triples, i.e., cluster compositions are balanced. Mimics FACTBENCH,
  /// whose negatives are perturbed copies of positives inside the same
  /// entity, driving the design effect *below* 1.
  kBalanced,
};

/// How cluster sizes M_i are generated.
enum class ClusterSizeModel {
  /// All clusters share the same size (rounded mean).
  kFixed,
  /// M_i = 1 + Geometric; matches the small-cluster skew of entity KGs.
  kGeometric,
  /// M_i ~ truncated Zipf: P(M = k) proportional to k^-s, k = 1..cap with
  /// cap = kZipfMaxClusterSize. The exponent s is solved numerically so the
  /// mean matches `mean_cluster_size`; models the heavy-tailed entity
  /// degrees of encyclopedic KGs (a few hub entities with thousands of
  /// facts).
  kZipf,
};

/// Largest cluster size the kZipf model draws.
inline constexpr uint64_t kZipfMaxClusterSize = 10000;

/// Generation parameters for a `SyntheticKg`.
struct SyntheticKgConfig {
  uint64_t num_clusters = 0;
  /// Target mean cluster size (>= 1).
  double mean_cluster_size = 1.0;
  ClusterSizeModel size_model = ClusterSizeModel::kGeometric;
  /// Target accuracy mu in [0, 1].
  double accuracy = 0.5;
  LabelModel label_model = LabelModel::kIid;
  /// Intra-cluster correlation in [0, 1) for kBetaMixture.
  double intra_cluster_rho = 0.0;
  /// Base seed; the whole population is a deterministic function of it.
  uint64_t seed = 0;
  /// If nonzero, cluster sizes are adjusted (+-1 spread across clusters) so
  /// the total triple count matches exactly — used to hit the fact counts
  /// of Table 1 to the digit.
  uint64_t exact_total_triples = 0;
};

/// Procedurally labeled clustered population (see file comment).
class SyntheticKg final : public KgView {
 public:
  /// Validates the config and generates the cluster-size prefix array.
  static Result<SyntheticKg> Create(const SyntheticKgConfig& config);

  // KgView interface.
  uint64_t num_triples() const override { return prefix_.back(); }
  uint64_t num_clusters() const override { return prefix_.size() - 1; }
  uint64_t cluster_size(uint64_t cluster) const override {
    return prefix_[cluster + 1] - prefix_[cluster];
  }
  bool label(uint64_t cluster, uint64_t offset) const override;
  TripleRef TripleAt(uint64_t global_index) const override;

  /// Exact realized accuracy for populations up to 32M triples (computed
  /// once and cached); the analytic expectation `config.accuracy` beyond
  /// that, where the realized value deviates by < 1e-4 anyway.
  double TrueAccuracy() const override;

  const SyntheticKgConfig& config() const { return config_; }

  /// Cluster-level accuracy p_c used by the label model (exposed for tests).
  double ClusterAccuracy(uint64_t cluster) const;

 private:
  explicit SyntheticKg(SyntheticKgConfig config) : config_(config) {}

  SyntheticKgConfig config_;
  std::vector<uint64_t> prefix_;  // Size num_clusters + 1.
  // p_c per cluster, drawn once in Create; kBetaMixture only, else empty.
  std::vector<double> beta_accuracy_;
  mutable bool accuracy_cached_ = false;
  mutable double cached_accuracy_ = 0.0;
};

}  // namespace kgacc

#endif  // KGACC_KG_SYNTHETIC_H_
