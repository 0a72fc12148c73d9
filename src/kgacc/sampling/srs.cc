#include "kgacc/sampling/srs.h"

#include "kgacc/util/check.h"

namespace kgacc {

SrsSampler::SrsSampler(const KgView& kg, const SrsConfig& config)
    : kg_(kg), config_(config) {
  KGACC_CHECK(config_.batch_size > 0);
}

Status SrsSampler::NextBatch(Rng* rng, SampleBatch* batch) {
  batch->Clear();
  const uint64_t population = kg_.num_triples();
  for (int i = 0; i < config_.batch_size; ++i) {
    uint64_t index;
    if (config_.without_replacement) {
      if (drawn_.size() >= population) break;  // Exhausted.
      // Rejection sampling is cheap while the sampled fraction stays small;
      // evaluation runs sample far below 50% of any population.
      do {
        index = rng->UniformInt(population);
      } while (!drawn_.insert(index));
    } else {
      index = rng->UniformInt(population);
    }
    const TripleRef ref = kg_.TripleAt(index);
    batch->AddSingleton(ref.cluster, kg_.cluster_size(ref.cluster), 0,
                        ref.offset);
  }
  return Status::OK();
}

}  // namespace kgacc
