#ifndef KGACC_SAMPLING_SYSTEMATIC_H_
#define KGACC_SAMPLING_SYSTEMATIC_H_

#include "kgacc/sampling/sampler.h"

/// \file systematic.h
/// Systematic sampling over the global triple order: a random start in
/// [0, kSystematicSkip) followed by equally spaced draws. A classic low-variance
/// alternative to SRS when the frame order is uncorrelated with the
/// response; since our frame enumerates triples cluster by cluster,
/// systematic draws also spread across entities, which depresses the
/// entity-identification cost slightly less than TWCS but more than SRS
/// with replacement. Uses the SRS estimator (standard practice; the true
/// systematic variance is not identifiable from one pass).

namespace kgacc {

/// Sampling interval: each pass over the population draws every 97th
/// triple (a prime, so the sweep does not alias with regular cluster
/// sizes).
inline constexpr uint64_t kSystematicSkip = 97;

/// Configuration for `SystematicSampler`.
struct SystematicConfig {
  /// Triples emitted per batch.
  int batch_size = 10;
};

/// Equal-interval triple sampler. Each Reset() draws a fresh random start;
/// consecutive batches continue the same sweep and wrap around with a new
/// random offset after exhausting a pass.
class SystematicSampler final : public Sampler {
 public:
  SystematicSampler(const KgView& kg, const SystematicConfig& config);

  Status NextBatch(Rng* rng, SampleBatch* batch) override;
  void Reset() override { position_ = kNotStarted; }
  EstimatorKind estimator() const override { return EstimatorKind::kSrs; }
  const KgView& kg() const override { return kg_; }
  const char* name() const override { return "SYS"; }
  std::unique_ptr<Sampler> Clone() const override {
    return std::make_unique<SystematicSampler>(kg_, config_);
  }

 private:
  static constexpr uint64_t kNotStarted = ~uint64_t{0};

  const KgView& kg_;
  SystematicConfig config_;
  uint64_t position_ = kNotStarted;
};

}  // namespace kgacc

#endif  // KGACC_SAMPLING_SYSTEMATIC_H_
