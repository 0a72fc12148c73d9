#include "kgacc/sampling/systematic.h"

#include "kgacc/util/check.h"

namespace kgacc {

SystematicSampler::SystematicSampler(const KgView& kg,
                                     const SystematicConfig& config)
    : kg_(kg), config_(config) {
  KGACC_CHECK(config_.batch_size > 0);
}

Status SystematicSampler::NextBatch(Rng* rng, SampleBatch* batch) {
  const uint64_t population = kg_.num_triples();
  batch->Clear();
  batch->Reserve(config_.batch_size, config_.batch_size);
  for (int i = 0; i < config_.batch_size; ++i) {
    if (position_ == kNotStarted) {
      position_ = rng->UniformInt(std::min(kSystematicSkip, population));
    } else {
      position_ += kSystematicSkip;
      if (position_ >= population) {
        // New pass with a fresh random phase to stay unbiased.
        position_ = rng->UniformInt(std::min(kSystematicSkip, population));
      }
    }
    const TripleRef ref = kg_.TripleAt(position_);
    batch->AddSingleton(ref.cluster, kg_.cluster_size(ref.cluster), 0,
                        ref.offset);
  }
  return Status::OK();
}

}  // namespace kgacc
