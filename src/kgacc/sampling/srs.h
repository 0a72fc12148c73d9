#ifndef KGACC_SAMPLING_SRS_H_
#define KGACC_SAMPLING_SRS_H_

#include "kgacc/sampling/sampler.h"
#include "kgacc/util/flat_set.h"

/// \file srs.h
/// Simple Random Sampling over triples (§2.4). Defaults to sampling with
/// replacement — for large KGs "a good approximation to sampling without
/// replacement and a practical solution" (the paper, citing Casella &
/// Berger) — with an optional exact without-replacement mode.

namespace kgacc {

/// Configuration for `SrsSampler`.
struct SrsConfig {
  /// Triples drawn per batch (phase 1 of the framework).
  int batch_size = 10;
  /// When true, previously drawn triples are excluded from future batches.
  bool without_replacement = false;
};

/// Uniform triple sampler.
class SrsSampler final : public Sampler {
 public:
  /// Binds to `kg`; the view must outlive the sampler.
  SrsSampler(const KgView& kg, const SrsConfig& config);

  Status NextBatch(Rng* rng, SampleBatch* batch) override;
  void Reset() override { drawn_.clear(); }
  EstimatorKind estimator() const override { return EstimatorKind::kSrs; }
  const KgView& kg() const override { return kg_; }
  const char* name() const override { return "SRS"; }
  std::unique_ptr<Sampler> Clone() const override {
    return std::make_unique<SrsSampler>(kg_, config_);
  }

 private:
  const KgView& kg_;
  SrsConfig config_;
  FlatSet64 drawn_;  // Global indices (WOR mode only).
};

}  // namespace kgacc

#endif  // KGACC_SAMPLING_SRS_H_
