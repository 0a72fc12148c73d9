#ifndef KGACC_SAMPLING_CLUSTER_H_
#define KGACC_SAMPLING_CLUSTER_H_

#include <memory>

#include "kgacc/sampling/sampler.h"
#include "kgacc/util/flat_set.h"

/// \file cluster.h
/// Cluster sampling designs (§2.4 and the online-appendix extras):
///
/// * **TWCS** — Two-stage Weighted Cluster Sampling, the state of the art
///   for KG accuracy evaluation: stage 1 draws clusters with probability
///   proportional to size (PPS, with replacement); stage 2 draws
///   min{M_i, m} triples per sampled cluster by SRS without replacement.
/// * **WCS** — single-stage PPS cluster sampling that annotates whole
///   clusters (TWCS with m = infinity).
/// * **RCS** — uniform cluster sampling annotating whole clusters.
///
/// All three emit first-stage cluster units consumed by the Hansen-Hurwitz
/// style mean-of-cluster-accuracies estimator (Eq. 3).

namespace kgacc {

/// Configuration for `TwcsSampler`.
struct TwcsConfig {
  /// Clusters drawn per batch (first stage).
  int batch_clusters = 3;
  /// Second-stage cap m; each sampled cluster contributes min{M_i, m}
  /// triples. Gao et al. recommend m in {3, 5}.
  int second_stage_size = 3;
};

/// Two-stage weighted (PPS) cluster sampler.
class TwcsSampler final : public Sampler {
 public:
  /// Binds to `kg` and precomputes the PPS alias table (O(#clusters), done
  /// once and shared across Reset() calls).
  TwcsSampler(const KgView& kg, const TwcsConfig& config);
  ~TwcsSampler() override;

  Status NextBatch(Rng* rng, SampleBatch* batch) override;
  void Reset() override {}
  EstimatorKind estimator() const override { return EstimatorKind::kCluster; }
  const KgView& kg() const override { return kg_; }
  const char* name() const override { return "TWCS"; }
  /// Cheap: the clone shares the immutable PPS alias table.
  std::unique_ptr<Sampler> Clone() const override;

 private:
  TwcsSampler(const TwcsSampler&) = default;

  const KgView& kg_;
  TwcsConfig config_;
  std::shared_ptr<const AliasTable> alias_;
  FlatSet64 scratch_;  // Second-stage Floyd bookkeeping, reused per unit.
};

/// Configuration for the single-stage cluster samplers.
struct ClusterConfig {
  /// Clusters drawn per batch.
  int batch_clusters = 2;
};

/// Single-stage PPS cluster sampler annotating whole clusters (WCS).
class WcsSampler final : public Sampler {
 public:
  WcsSampler(const KgView& kg, const ClusterConfig& config);
  ~WcsSampler() override;

  Status NextBatch(Rng* rng, SampleBatch* batch) override;
  void Reset() override {}
  EstimatorKind estimator() const override { return EstimatorKind::kCluster; }
  const KgView& kg() const override { return kg_; }
  const char* name() const override { return "WCS"; }
  /// Cheap: the clone shares the immutable PPS alias table.
  std::unique_ptr<Sampler> Clone() const override;

 private:
  WcsSampler(const WcsSampler&) = default;

  const KgView& kg_;
  ClusterConfig config_;
  std::shared_ptr<const AliasTable> alias_;
};

/// Uniform (unweighted) cluster sampler annotating whole clusters (RCS).
/// Emitted units carry whole-cluster counts and advertise the unequal-size
/// ratio estimator (`EstimatorKind::kRcs`): the
/// per-cluster-accuracy mean is biased when cluster size correlates with
/// accuracy under uniform selection.
class RcsSampler final : public Sampler {
 public:
  RcsSampler(const KgView& kg, const ClusterConfig& config);

  Status NextBatch(Rng* rng, SampleBatch* batch) override;
  void Reset() override {}
  EstimatorKind estimator() const override { return EstimatorKind::kRcs; }
  const KgView& kg() const override { return kg_; }
  const char* name() const override { return "RCS"; }
  std::unique_ptr<Sampler> Clone() const override {
    return std::make_unique<RcsSampler>(kg_, config_);
  }

 private:
  const KgView& kg_;
  ClusterConfig config_;
};

namespace internal {

/// Builds the PPS alias table over cluster sizes. Shared by TWCS/WCS.
std::unique_ptr<AliasTable> BuildSizeAliasTable(const KgView& kg);

/// Draws min{M_i, m} second-stage offsets from a cluster by SRS without
/// replacement (the whole cluster when m >= M_i). Leaves the existing
/// elements of `*out` (the flat `SampleBatch`'s shared offset buffer) in
/// place, writes the unit's draw at the tail, and reuses `*scratch` across
/// units.
void DrawSecondStageAppend(uint64_t cluster_size, int m, Rng* rng,
                           std::vector<uint64_t>* out, FlatSet64* scratch);

}  // namespace internal

}  // namespace kgacc

#endif  // KGACC_SAMPLING_CLUSTER_H_
