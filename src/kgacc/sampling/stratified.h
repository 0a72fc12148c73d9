#ifndef KGACC_SAMPLING_STRATIFIED_H_
#define KGACC_SAMPLING_STRATIFIED_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "kgacc/sampling/sampler.h"

/// \file stratified.h
/// Stratified Simple Random Sampling (SSRS) over triples — one of the
/// additional designs of the paper's online appendix. Clusters are bucketed
/// into strata by size (a cheap structural proxy: extraction noise
/// correlates with entity degree), a fixed share of each batch is drawn
/// uniformly *within* each stratum (proportional allocation), and the
/// stratified estimator reweights by the population shares:
///
///   mu = sum_h W_h mu_h,   V = sum_h W_h^2 mu_h (1 - mu_h) / n_h,
///
/// with W_h = (stratum triples) / M. With proportional allocation the
/// variance never exceeds SRS and shrinks with between-stratum separation.

namespace kgacc {

/// Cluster-size boundaries separating strata: a cluster of size s belongs
/// to stratum h where h is the first boundary with s <= boundary (the last
/// stratum is unbounded): singletons, small (2-3) and large (4+) clusters.
inline constexpr std::array<uint64_t, 2> kStratumSizeBoundaries = {1, 3};

/// Configuration for `StratifiedSampler`.
struct StratifiedConfig {
  /// Triples drawn per batch, split across strata proportionally.
  int batch_size = 10;
};

/// Stratified uniform triple sampler with proportional allocation.
class StratifiedSampler final : public Sampler {
 public:
  /// Binds to `kg` and builds the per-stratum triple index (O(#clusters)).
  StratifiedSampler(const KgView& kg, const StratifiedConfig& config);

  Status NextBatch(Rng* rng, SampleBatch* batch) override;
  /// Restores fresh-construction state (clears the fractional allocation
  /// carry-over, so a reset sampler replays the same stream as a clone).
  void Reset() override { carry_.assign(index_->strata.size(), 0.0); }
  EstimatorKind estimator() const override {
    return EstimatorKind::kStratified;
  }
  const KgView& kg() const override { return kg_; }
  const char* name() const override { return "SSRS"; }
  const std::vector<double>* stratum_weights() const override {
    return &index_->weights;
  }
  /// Cheap: the clone shares the immutable per-stratum triple index.
  std::unique_ptr<Sampler> Clone() const override;

  /// Number of non-empty strata.
  size_t num_strata() const { return index_->strata.size(); }

 private:
  struct Stratum {
    /// Clusters in this stratum.
    std::vector<uint64_t> clusters;
    /// Prefix sums of cluster sizes for uniform triple draws.
    std::vector<uint64_t> prefix;
    uint64_t total_triples = 0;
  };
  /// The immutable stratification, shared across clones.
  struct Index {
    std::vector<Stratum> strata;
    std::vector<double> weights;   // W_h = stratum triples / M.
  };

  StratifiedSampler(const StratifiedSampler&) = default;

  const KgView& kg_;
  StratifiedConfig config_;
  std::shared_ptr<const Index> index_;
  std::vector<double> carry_;      // Fractional allocation carry-over.
};

}  // namespace kgacc

#endif  // KGACC_SAMPLING_STRATIFIED_H_
