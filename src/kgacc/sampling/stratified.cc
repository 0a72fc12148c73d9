#include "kgacc/sampling/stratified.h"

#include <algorithm>

#include "kgacc/util/check.h"

namespace kgacc {

StratifiedSampler::StratifiedSampler(const KgView& kg,
                                     const StratifiedConfig& config)
    : kg_(kg), config_(config) {
  KGACC_CHECK(config_.batch_size > 0);

  std::vector<Stratum> raw(kStratumSizeBoundaries.size() + 1);
  for (uint64_t c = 0; c < kg_.num_clusters(); ++c) {
    const uint64_t size = kg_.cluster_size(c);
    size_t h = 0;
    while (h < kStratumSizeBoundaries.size() &&
           size > kStratumSizeBoundaries[h]) {
      ++h;
    }
    raw[h].clusters.push_back(c);
  }
  // Drop empty strata (their weight is zero and they cannot be sampled).
  auto index = std::make_shared<Index>();
  for (Stratum& s : raw) {
    if (s.clusters.empty()) continue;
    s.prefix.reserve(s.clusters.size() + 1);
    s.prefix.push_back(0);
    for (uint64_t c : s.clusters) {
      s.prefix.push_back(s.prefix.back() + kg_.cluster_size(c));
    }
    s.total_triples = s.prefix.back();
    index->strata.push_back(std::move(s));
  }
  KGACC_CHECK(!index->strata.empty());
  const double total = static_cast<double>(kg_.num_triples());
  index->weights.reserve(index->strata.size());
  for (const Stratum& s : index->strata) {
    index->weights.push_back(static_cast<double>(s.total_triples) / total);
  }
  index_ = std::move(index);
  carry_.assign(index_->strata.size(), 0.0);
}

std::unique_ptr<Sampler> StratifiedSampler::Clone() const {
  auto clone = std::unique_ptr<StratifiedSampler>(new StratifiedSampler(*this));
  clone->Reset();
  return clone;
}

Status StratifiedSampler::NextBatch(Rng* rng, SampleBatch* batch) {
  batch->Clear();
  batch->Reserve(config_.batch_size, config_.batch_size);
  for (size_t h = 0; h < index_->strata.size(); ++h) {
    // Proportional allocation with fractional carry-over so small strata
    // still receive their fair long-run share at small batch sizes.
    carry_[h] += index_->weights[h] * static_cast<double>(config_.batch_size);
    int draws = static_cast<int>(carry_[h]);
    carry_[h] -= draws;
    const Stratum& stratum = index_->strata[h];
    for (int i = 0; i < draws; ++i) {
      const uint64_t t = rng->UniformInt(stratum.total_triples);
      const auto it =
          std::upper_bound(stratum.prefix.begin(), stratum.prefix.end(), t);
      const size_t idx = static_cast<size_t>(it - stratum.prefix.begin()) - 1;
      const uint64_t cluster = stratum.clusters[idx];
      batch->AddSingleton(cluster, kg_.cluster_size(cluster),
                          static_cast<uint32_t>(h), t - stratum.prefix[idx]);
    }
  }
  return Status::OK();
}

}  // namespace kgacc
