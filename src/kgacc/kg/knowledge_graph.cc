#include "kgacc/kg/knowledge_graph.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "kgacc/util/check.h"

namespace kgacc {

namespace {

size_t HashTerm(std::string_view term) {
  return std::hash<std::string_view>{}(term);
}

}  // namespace

size_t Vocabulary::Probe(std::string_view term) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashTerm(term) & mask;; i = (i + 1) & mask) {
    const uint32_t id = slots_[i];
    if (id == kEmptySlot || TermOf(id) == term) return i;
  }
}

void Vocabulary::Grow() {
  std::vector<uint32_t> slots(std::max<size_t>(16, 2 * slots_.size()),
                              kEmptySlot);
  const size_t mask = slots.size() - 1;
  for (uint32_t id = 0; id < size(); ++id) {
    size_t i = HashTerm(TermOf(id)) & mask;
    while (slots[i] != kEmptySlot) i = (i + 1) & mask;
    slots[i] = id;
  }
  slots_ = std::move(slots);
}

uint32_t Vocabulary::Intern(std::string_view term) {
  if (!slots_.empty()) {
    const uint32_t found = slots_[Probe(term)];
    if (found != kEmptySlot) return found;
  }
  KGACC_CHECK(size() < kEmptySlot);
  const uint32_t id = static_cast<uint32_t>(size());
  chars_.append(term);
  ends_.push_back(chars_.size());
  if (2 * size() > slots_.size()) {
    Grow();  // Re-inserts every id, the new one included.
  } else {
    slots_[Probe(term)] = id;
  }
  return id;
}

Result<uint32_t> Vocabulary::Find(std::string_view term) const {
  const uint32_t found = slots_.empty() ? kEmptySlot : slots_[Probe(term)];
  if (found == kEmptySlot) {
    return Status::NotFound("term not in vocabulary: " + std::string(term));
  }
  return found;
}

std::string_view Vocabulary::TermOf(uint32_t id) const {
  KGACC_CHECK(id < size());
  const uint64_t begin = id == 0 ? 0 : ends_[id - 1];
  return std::string_view(chars_.data() + begin, ends_[id] - begin);
}

TripleRef KnowledgeGraph::TripleAt(uint64_t global_index) const {
  KGACC_DCHECK(global_index < num_triples());
  // cluster_begin_ is sorted; find the cluster containing global_index.
  const auto it = std::upper_bound(cluster_begin_.begin(),
                                   cluster_begin_.end(), global_index);
  const uint64_t cluster =
      static_cast<uint64_t>(it - cluster_begin_.begin()) - 1;
  return TripleRef{cluster, global_index - cluster_begin_[cluster]};
}

double KnowledgeGraph::TrueAccuracy() const {
  if (labels_.empty()) return 0.0;
  const uint64_t correct =
      std::accumulate(labels_.begin(), labels_.end(), uint64_t{0});
  return static_cast<double>(correct) / static_cast<double>(labels_.size());
}

void KnowledgeGraphBuilder::Add(std::string_view subject,
                                std::string_view predicate,
                                std::string_view object, bool correct) {
  Triple t;
  t.subject = vocab_.Intern(subject);
  t.predicate = vocab_.Intern(predicate);
  t.object = vocab_.Intern(object);
  triples_.push_back(t);
  labels_.push_back(correct ? 1 : 0);
}

Result<KnowledgeGraph> KnowledgeGraphBuilder::Build() {
  if (triples_.empty()) {
    return Status::FailedPrecondition("cannot build an empty knowledge graph");
  }
  const size_t n = triples_.size();
  KnowledgeGraph kg;

  // Stable counting sort on subject id, straight into the final arrays.
  // begin[s] is where subject s's cluster starts; ids with no triples (pure
  // predicates and objects) get empty ranges and no cluster.
  std::vector<uint64_t> begin(vocab_.size() + 1, 0);
  for (const Triple& t : triples_) ++begin[t.subject + 1];
  for (size_t s = 0; s < vocab_.size(); ++s) {
    if (begin[s + 1] != 0) kg.cluster_begin_.push_back(begin[s]);
    begin[s + 1] += begin[s];
  }
  kg.cluster_begin_.push_back(n);
  kg.triples_.resize(n);
  kg.labels_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t at = begin[triples_[i].subject]++;
    kg.triples_[at] = triples_[i];
    kg.labels_[at] = labels_[i];
  }
  begin = {};
  triples_ = {};
  labels_ = {};

  // Canonical (predicate, object) order inside each cluster; a duplicate
  // triple sorts next to its twin. Clusters are visited in subject order,
  // so the first duplicate reported is the least (s, p, o) one.
  struct Entry {
    uint64_t key;  // predicate << 32 | object
    uint8_t label;
  };
  std::vector<Entry> cluster;
  for (size_t c = 0; c + 1 < kg.cluster_begin_.size(); ++c) {
    const uint64_t first = kg.cluster_begin_[c];
    const uint64_t last = kg.cluster_begin_[c + 1];
    if (last - first < 2) continue;
    cluster.clear();
    for (uint64_t i = first; i < last; ++i) {
      const Triple& t = kg.triples_[i];
      cluster.push_back(
          {uint64_t{t.predicate} << 32 | t.object, kg.labels_[i]});
    }
    std::sort(cluster.begin(), cluster.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    for (size_t j = 0; j < cluster.size(); ++j) {
      Triple& t = kg.triples_[first + j];
      t.predicate = static_cast<uint32_t>(cluster[j].key >> 32);
      t.object = static_cast<uint32_t>(cluster[j].key);
      kg.labels_[first + j] = cluster[j].label;
      if (j > 0 && cluster[j].key == cluster[j - 1].key) {
        const Status duplicate = Status::InvalidArgument(
            "duplicate triple: " + std::string(vocab_.TermOf(t.subject)) +
            " " + std::string(vocab_.TermOf(t.predicate)) + " " +
            std::string(vocab_.TermOf(t.object)));
        Reset();
        return duplicate;
      }
    }
  }

  kg.vocab_ = std::move(vocab_);
  Reset();
  return kg;
}

void KnowledgeGraphBuilder::Reset() {
  vocab_ = Vocabulary();
  triples_ = {};
  labels_ = {};
}

}  // namespace kgacc
