#include "kgacc/sampling/cluster.h"

#include <algorithm>
#include <numeric>

#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/util/check.h"

namespace kgacc {

namespace internal {

std::unique_ptr<AliasTable> BuildSizeAliasTable(const KgView& kg) {
  // KnowledgeGraph is final, so through its own type every size read is a
  // direct, inlined call; any other view pays one virtual call per cluster.
  const auto build = [](const auto& view) {
    return std::make_unique<AliasTable>(
        view.num_clusters(), view.num_triples(),
        [&view](uint64_t c) { return view.cluster_size(c); });
  };
  if (const auto* graph = dynamic_cast<const KnowledgeGraph*>(&kg)) {
    return build(*graph);
  }
  return build(kg);
}

void DrawSecondStageAppend(uint64_t cluster_size, int m, Rng* rng,
                           std::vector<uint64_t>* out, FlatSet64* scratch) {
  KGACC_DCHECK(cluster_size >= 1);
  if (m <= 0 || static_cast<uint64_t>(m) >= cluster_size) {
    const size_t base = out->size();
    out->resize(base + cluster_size);
    std::iota(out->begin() + base, out->end(), 0);
    return;
  }
  SampleWithoutReplacementAppend(cluster_size, static_cast<uint64_t>(m), rng,
                                 out, scratch);
}

}  // namespace internal

TwcsSampler::TwcsSampler(const KgView& kg, const TwcsConfig& config)
    : kg_(kg), config_(config) {
  KGACC_CHECK(config_.batch_clusters > 0);
  KGACC_CHECK(config_.second_stage_size > 0);
  alias_ = internal::BuildSizeAliasTable(kg_);
}

TwcsSampler::~TwcsSampler() = default;

std::unique_ptr<Sampler> TwcsSampler::Clone() const {
  return std::unique_ptr<Sampler>(new TwcsSampler(*this));
}

Status TwcsSampler::NextBatch(Rng* rng, SampleBatch* batch) {
  batch->Clear();
  batch->Reserve(config_.batch_clusters,
                 static_cast<size_t>(config_.batch_clusters) *
                     static_cast<size_t>(config_.second_stage_size));
  for (int i = 0; i < config_.batch_clusters; ++i) {
    const uint64_t cluster = alias_->Sample(rng);
    const uint64_t size = kg_.cluster_size(cluster);
    batch->OpenUnit(cluster, size, 0);
    internal::DrawSecondStageAppend(size, config_.second_stage_size, rng,
                                    batch->mutable_offset_buffer(), &scratch_);
    batch->CloseUnit();
  }
  return Status::OK();
}

WcsSampler::WcsSampler(const KgView& kg, const ClusterConfig& config)
    : kg_(kg), config_(config) {
  KGACC_CHECK(config_.batch_clusters > 0);
  alias_ = internal::BuildSizeAliasTable(kg_);
}

WcsSampler::~WcsSampler() = default;

std::unique_ptr<Sampler> WcsSampler::Clone() const {
  return std::unique_ptr<Sampler>(new WcsSampler(*this));
}

Status WcsSampler::NextBatch(Rng* rng, SampleBatch* batch) {
  batch->Clear();
  for (int i = 0; i < config_.batch_clusters; ++i) {
    const uint64_t cluster = alias_->Sample(rng);
    const uint64_t size = kg_.cluster_size(cluster);
    batch->OpenUnit(cluster, size, 0);
    // Whole-cluster annotation: the offsets are the identity range.
    batch->AppendIota(size);
    batch->CloseUnit();
  }
  return Status::OK();
}

RcsSampler::RcsSampler(const KgView& kg, const ClusterConfig& config)
    : kg_(kg), config_(config) {
  KGACC_CHECK(config_.batch_clusters > 0);
}

Status RcsSampler::NextBatch(Rng* rng, SampleBatch* batch) {
  batch->Clear();
  for (int i = 0; i < config_.batch_clusters; ++i) {
    const uint64_t cluster = rng->UniformInt(kg_.num_clusters());
    const uint64_t size = kg_.cluster_size(cluster);
    batch->OpenUnit(cluster, size, 0);
    // Whole-cluster annotation: the offsets are the identity range.
    batch->AppendIota(size);
    batch->CloseUnit();
  }
  return Status::OK();
}

}  // namespace kgacc
