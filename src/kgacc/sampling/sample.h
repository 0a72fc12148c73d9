#ifndef KGACC_SAMPLING_SAMPLE_H_
#define KGACC_SAMPLING_SAMPLE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "kgacc/kg/triple.h"
#include "kgacc/util/check.h"
#include "kgacc/util/flat_set.h"
#include "kgacc/util/status.h"

/// \file sample.h
/// The units of Algorithm 1's `sample` variable: the sampled units a design
/// draws each batch (`SampleBatch`), the annotated units the estimator
/// folds in (`AnnotatedUnit`), and the distinct entities and triples the
/// cost model charges for (`AnnotatedSample`).

namespace kgacc {


/// One sampled unit: either a single SRS triple or one first-stage cluster
/// occurrence with its second-stage offsets (TWCS/WCS). Produced by the
/// samplers *before* annotation — offsets are chosen from structure only.
/// Units do not own their offsets: they index a span of the enclosing
/// `SampleBatch`'s shared offset buffer.
struct SampledUnit {
  uint64_t cluster = 0;
  /// Cluster population size M_i (needed by cluster estimators).
  uint64_t cluster_population = 0;
  /// Span of this unit's second-stage offsets in the batch's shared buffer
  /// (one element for SRS units).
  uint64_t offset_begin = 0;
  uint32_t offset_count = 0;
  /// Stratum index for stratified designs; 0 for unstratified ones.
  uint32_t stratum = 0;
};

/// A batch of sampled units (phase 1 of the framework), stored
/// structure-of-arrays: one flat unit array plus one shared offset buffer
/// the units carve spans out of. Drawing a batch therefore performs no
/// per-unit heap allocation, and a batch object reused across steps (the
/// `EvaluationSession` hot loop) reaches steady state with zero
/// allocations per step.
class SampleBatch {
 public:
  size_t size() const { return units_.size(); }
  bool empty() const { return units_.empty(); }

  /// Units in draw order.
  const SampledUnit& unit(size_t i) const { return units_[i]; }
  const std::vector<SampledUnit>& units() const { return units_; }

  /// The unit's second-stage offsets within its cluster.
  std::span<const uint64_t> offsets(const SampledUnit& u) const {
    KGACC_DCHECK(u.offset_begin + u.offset_count <= offsets_.size());
    return {offsets_.data() + u.offset_begin, u.offset_count};
  }
  std::span<const uint64_t> offsets(size_t i) const {
    return offsets(units_[i]);
  }

  /// Drops all units and offsets, keeping both buffers' capacity.
  void Clear() {
    units_.clear();
    offsets_.clear();
  }

  /// Pre-sizes the buffers for `units` units carrying `offsets` offsets.
  void Reserve(size_t units, size_t offsets) {
    units_.reserve(units);
    offsets_.reserve(offsets);
  }

  // -- Producer API (samplers) ---------------------------------------------

  /// Appends a one-triple unit (SRS-like designs).
  void AddSingleton(uint64_t cluster, uint64_t cluster_population,
                    uint32_t stratum, uint64_t offset) {
    SampledUnit& u = OpenUnit(cluster, cluster_population, stratum);
    offsets_.push_back(offset);
    u.offset_count = 1;
  }

  /// Starts a multi-offset unit; append its offsets with `AppendIota` or
  /// directly into `mutable_offset_buffer()`, then seal the span with
  /// `CloseUnit`. Units must be produced one at a time.
  SampledUnit& OpenUnit(uint64_t cluster, uint64_t cluster_population,
                        uint32_t stratum) {
    SampledUnit u;
    u.cluster = cluster;
    u.cluster_population = cluster_population;
    u.stratum = stratum;
    u.offset_begin = offsets_.size();
    u.offset_count = 0;
    units_.push_back(u);
    return units_.back();
  }

  /// Appends the identity range 0..count-1 (whole-cluster designs).
  void AppendIota(uint64_t count) {
    const size_t base = offsets_.size();
    offsets_.resize(base + count);
    for (uint64_t i = 0; i < count; ++i) offsets_[base + i] = i;
  }

  /// Seals the open unit's span at the current end of the offset buffer.
  void CloseUnit() {
    SampledUnit& u = units_.back();
    KGACC_DCHECK(offsets_.size() - u.offset_begin <=
                 std::numeric_limits<uint32_t>::max());
    u.offset_count = static_cast<uint32_t>(offsets_.size() - u.offset_begin);
  }

  /// Raw offset buffer for bulk producers (`SampleWithoutReplacementAppend`
  /// writes the second-stage draw straight into the open unit's tail).
  std::vector<uint64_t>* mutable_offset_buffer() { return &offsets_; }

 private:
  std::vector<SampledUnit> units_;
  std::vector<uint64_t> offsets_;
};

/// A sampled unit after annotation: how many of the drawn triples were
/// annotated correct.
struct AnnotatedUnit {
  uint64_t cluster = 0;
  uint64_t cluster_population = 0;
  uint32_t stratum = 0;
  uint32_t drawn = 0;
  uint32_t correct = 0;
};

/// The distinct entities and triples an audit has annotated so far: what
/// the annotation cost function charges for (Eq. 12: identifying an
/// already-identified entity is free, and a re-drawn triple is only
/// manually verified once). The running totals (n_S, tau_S) and the
/// estimator state live in `EstimatorAccumulator`.
class AnnotatedSample {
 public:
  /// Restores the freshly constructed state while keeping both
  /// distinct-set tables' capacity. This is what lets a worker context
  /// recycle one sample across thousands of audits: after the first few
  /// jobs the flat sets are sized for the workload and later sessions never
  /// rehash.
  void Clear();

  /// Distinct entities |E_S| identified so far.
  uint64_t num_distinct_entities() const { return entities_.size(); }

  /// Distinct triples |T_S| annotated so far.
  uint64_t num_distinct_triples() const { return triples_.size(); }

  /// Records a triple as manually annotated (updates the distinct sets).
  /// Returns true when the triple had not been seen before.
  bool MarkAnnotated(const TripleRef& ref);

 private:
  static uint64_t TripleKey(const TripleRef& ref);

  FlatSet64 entities_;
  FlatSet64 triples_;
};

}  // namespace kgacc

#endif  // KGACC_SAMPLING_SAMPLE_H_
