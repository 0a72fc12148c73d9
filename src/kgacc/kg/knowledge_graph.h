#ifndef KGACC_KG_KNOWLEDGE_GRAPH_H_
#define KGACC_KG_KNOWLEDGE_GRAPH_H_

#include <string>
#include <string_view>
#include <vector>

#include "kgacc/kg/kg_view.h"
#include "kgacc/kg/triple.h"
#include "kgacc/util/status.h"

/// \file knowledge_graph.h
/// In-memory ground RDF graph G = (V, R, T, eta) per §2.1, stored as
/// entity-clustered triples with an interned vocabulary. This is the
/// materialized implementation of `KgView` used for the small, real-life
/// style datasets (YAGO / NELL / DBPEDIA / FACTBENCH profiles and TSV
/// loads).

namespace kgacc {

/// Interned string vocabulary shared by subjects, predicates and objects.
/// Ids are dense and assigned in first-seen order. Each term is stored once,
/// in one contiguous character arena; lookups go through an open-addressing
/// table of ids, so interning allocates nothing per term.
class Vocabulary {
 public:
  /// Returns the id for `term`, interning it on first sight.
  uint32_t Intern(std::string_view term);

  /// Looks up an existing term; NotFound if absent.
  Result<uint32_t> Find(std::string_view term) const;

  /// The term for `id`; id must have been produced by Intern. The view
  /// points into the arena and stays valid until the next `Intern`.
  std::string_view TermOf(uint32_t id) const;

  size_t size() const { return ends_.size(); }

 private:
  /// Marks a free slot in `slots_`; never handed out as an id.
  static constexpr uint32_t kEmptySlot = 0xffffffffu;

  /// The slot holding `term`'s id, or the free slot where it belongs.
  size_t Probe(std::string_view term) const;
  /// Doubles `slots_` (at least 16 slots) and re-inserts every id.
  void Grow();

  std::string chars_;            // Every term, back to back.
  std::vector<uint64_t> ends_;   // ends_[id]: end of term `id` in chars_.
  std::vector<uint32_t> slots_;  // Power-of-two size, at most half full.
};

/// Immutable, entity-clustered in-memory KG. Build instances with
/// `KnowledgeGraphBuilder`.
class KnowledgeGraph final : public KgView {
 public:
  // KgView interface.
  uint64_t num_triples() const override { return triples_.size(); }
  uint64_t num_clusters() const override { return cluster_begin_.size() - 1; }
  uint64_t cluster_size(uint64_t cluster) const override {
    return cluster_begin_[cluster + 1] - cluster_begin_[cluster];
  }
  bool label(uint64_t cluster, uint64_t offset) const override {
    return labels_[cluster_begin_[cluster] + offset] != 0;
  }
  TripleRef TripleAt(uint64_t global_index) const override;
  double TrueAccuracy() const override;

  /// The materialized triple at (cluster, offset).
  const Triple& triple(uint64_t cluster, uint64_t offset) const {
    return triples_[cluster_begin_[cluster] + offset];
  }

  /// Subject entity id of a cluster.
  uint32_t cluster_subject(uint64_t cluster) const {
    return triples_[cluster_begin_[cluster]].subject;
  }

  /// Shared vocabulary for rendering triples back to strings.
  const Vocabulary& vocabulary() const { return vocab_; }

  /// Average cluster size M / |clusters|.
  double AvgClusterSize() const {
    return static_cast<double>(num_triples()) /
           static_cast<double>(num_clusters());
  }

 private:
  friend class KnowledgeGraphBuilder;
  KnowledgeGraph() = default;

  Vocabulary vocab_;
  std::vector<Triple> triples_;        // Grouped by subject.
  std::vector<uint8_t> labels_;        // Parallel to triples_.
  std::vector<uint64_t> cluster_begin_;  // Size num_clusters + 1.
};

/// Accumulates labeled triples and produces an entity-clustered
/// `KnowledgeGraph`. Duplicate (s, p, o) triples are rejected at Build time.
class KnowledgeGraphBuilder {
 public:
  /// Adds one labeled fact. Terms are interned; order is irrelevant.
  void Add(std::string_view subject, std::string_view predicate,
           std::string_view object, bool correct);

  /// Number of facts added so far.
  size_t size() const { return triples_.size(); }

  /// Finalizes the graph in O(n + V) plus the per-cluster sorts: a stable
  /// counting sort groups triples by subject id, then each cluster is
  /// sorted by (predicate, object), which also finds duplicates. The
  /// builder is left empty afterwards, whether or not Build succeeds.
  Result<KnowledgeGraph> Build();

 private:
  void Reset();

  Vocabulary vocab_;
  std::vector<Triple> triples_;
  std::vector<uint8_t> labels_;
};

}  // namespace kgacc

#endif  // KGACC_KG_KNOWLEDGE_GRAPH_H_
