#include "kgacc/kg/knowledge_graph.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "kgacc/kg/profiles.h"
#include "kgacc/util/random.h"

namespace kgacc {
namespace {

KnowledgeGraph MakeSmallKg() {
  KnowledgeGraphBuilder builder;
  builder.Add("alice", "bornIn", "paris", true);
  builder.Add("alice", "worksAt", "acme", false);
  builder.Add("bob", "bornIn", "rome", true);
  builder.Add("carol", "bornIn", "oslo", true);
  builder.Add("carol", "knows", "alice", true);
  builder.Add("carol", "knows", "bob", false);
  return *builder.Build();
}

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary vocab;
  const uint32_t a = vocab.Intern("alice");
  const uint32_t b = vocab.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(vocab.Intern("alice"), a);
  EXPECT_EQ(vocab.size(), 2u);
  EXPECT_EQ(vocab.TermOf(a), "alice");
}

TEST(VocabularyTest, FindReportsMissingTerms) {
  Vocabulary vocab;
  vocab.Intern("x");
  EXPECT_TRUE(vocab.Find("x").ok());
  EXPECT_FALSE(vocab.Find("y").ok());
  EXPECT_EQ(vocab.Find("y").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(Vocabulary().Find("x").ok());  // No table allocated yet.
}

TEST(VocabularyTest, TermsKeepTheirBytesAcrossGrowth) {
  // Long terms (past any small-string buffer), embedded NULs, and terms
  // that are prefixes of each other, over enough ids to regrow the table.
  Vocabulary vocab;
  std::vector<std::string> terms;
  for (int i = 0; i < 5000; ++i) {
    std::string term = "term-" + std::to_string(i);
    if (i % 3 == 0) term += std::string(20, 'x');
    if (i % 5 == 0) term += std::string("\0tail", 5);
    terms.push_back(term);
  }
  terms.push_back(std::string(1, '\0'));
  terms.push_back(std::string(2, '\0'));
  terms.push_back("");
  for (size_t i = 0; i < terms.size(); ++i) {
    ASSERT_EQ(vocab.Intern(terms[i]), i);
  }
  ASSERT_EQ(vocab.size(), terms.size());
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(vocab.TermOf(static_cast<uint32_t>(i)), terms[i]);
    EXPECT_EQ(vocab.Intern(terms[i]), i);
    EXPECT_EQ(*vocab.Find(terms[i]), i);
  }
  EXPECT_FALSE(vocab.Find(std::string(3, '\0')).ok());
  EXPECT_EQ(vocab.size(), terms.size());
}

TEST(KnowledgeGraphTest, CountsAndClusters) {
  const KnowledgeGraph kg = MakeSmallKg();
  EXPECT_EQ(kg.num_triples(), 6u);
  EXPECT_EQ(kg.num_clusters(), 3u);
  // Cluster sizes sum to the triple count.
  uint64_t total = 0;
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    total += kg.cluster_size(c);
  }
  EXPECT_EQ(total, kg.num_triples());
}

TEST(KnowledgeGraphTest, ClustersGroupBySubject) {
  const KnowledgeGraph kg = MakeSmallKg();
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    const uint32_t subject = kg.cluster_subject(c);
    for (uint64_t o = 0; o < kg.cluster_size(c); ++o) {
      EXPECT_EQ(kg.triple(c, o).subject, subject);
    }
  }
}

TEST(KnowledgeGraphTest, TrueAccuracyIsLabelFraction) {
  const KnowledgeGraph kg = MakeSmallKg();
  EXPECT_DOUBLE_EQ(kg.TrueAccuracy(), 4.0 / 6.0);
}

TEST(KnowledgeGraphTest, TripleAtCoversWholeRange) {
  const KnowledgeGraph kg = MakeSmallKg();
  uint64_t index = 0;
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    for (uint64_t o = 0; o < kg.cluster_size(c); ++o, ++index) {
      const TripleRef ref = kg.TripleAt(index);
      EXPECT_EQ(ref.cluster, c) << index;
      EXPECT_EQ(ref.offset, o) << index;
    }
  }
  EXPECT_EQ(index, kg.num_triples());
}

TEST(KnowledgeGraphTest, LabelsFollowTriplesThroughSorting) {
  // The builder sorts by (s, p, o); labels must stay attached.
  KnowledgeGraphBuilder builder;
  builder.Add("z", "p", "o1", false);
  builder.Add("a", "p", "o1", true);
  const KnowledgeGraph kg = *builder.Build();
  // "a" sorts into cluster order; its label is true.
  const auto& vocab = kg.vocabulary();
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    const std::string_view subject = vocab.TermOf(kg.cluster_subject(c));
    if (subject == "a") {
      EXPECT_TRUE(kg.label(c, 0));
    }
    if (subject == "z") {
      EXPECT_FALSE(kg.label(c, 0));
    }
  }
}

TEST(KnowledgeGraphBuilderTest, RejectsNonAdjacentDuplicateWithItsTerms) {
  KnowledgeGraphBuilder builder;
  builder.Add("dup-subject", "dup-predicate", "dup-object", true);
  for (int i = 0; i < 50; ++i) {
    builder.Add("s" + std::to_string(i % 7), "p", "o" + std::to_string(i),
                true);
    builder.Add("dup-subject", "p" + std::to_string(i), "dup-object", false);
  }
  builder.Add("dup-subject", "dup-predicate", "dup-object", false);
  const auto result = builder.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message(),
            "duplicate triple: dup-subject dup-predicate dup-object");
  // A failed Build leaves the builder empty and usable.
  EXPECT_EQ(builder.size(), 0u);
  builder.Add("a", "b", "c", true);
  const auto next = builder.Build();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->vocabulary().size(), 3u);
}

// One labeled fact, as strings.
using Fact = std::tuple<std::string, std::string, std::string, bool>;

// Random byte string of length 1..max_len, NULs included.
std::string RandomTerm(Rng* rng, size_t max_len) {
  std::string term(1 + rng->UniformInt(max_len), '\0');
  for (char& ch : term) ch = static_cast<char>(rng->UniformInt(256));
  return term;
}

TEST(KnowledgeGraphBuilderTest, BuildMatchesSortedReference) {
  Rng rng(20251017);
  std::vector<std::string> pool;
  std::unordered_set<std::string> seen;
  while (pool.size() < 120000) {
    std::string term = RandomTerm(&rng, 40);
    if (seen.insert(term).second) pool.push_back(std::move(term));
  }
  // 40k subjects of several triples each, met in random order; predicates
  // and objects from the whole pool, so some subjects first appear as
  // objects.
  std::vector<Fact> facts;
  std::unordered_set<uint64_t> used;
  while (facts.size() < 200000) {
    const size_t s = rng.UniformInt(40000);
    const size_t p = rng.UniformInt(pool.size());
    const size_t o = rng.UniformInt(pool.size());
    if (!used.insert((s * pool.size() + p) * pool.size() + o).second) {
      continue;
    }
    facts.emplace_back(pool[s], pool[p], pool[o], rng.Bernoulli(0.8));
  }

  // Reference: ids by first sight, then a std::sort by (s, p, o) ids.
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<std::string> terms;
  auto intern = [&](const std::string& term) {
    const auto [it, inserted] =
        ids.emplace(term, static_cast<uint32_t>(terms.size()));
    if (inserted) terms.push_back(term);
    return it->second;
  };
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t, bool>> expected;
  KnowledgeGraphBuilder builder;
  for (const auto& [s, p, o, label] : facts) {
    const uint32_t si = intern(s), pi = intern(p), oi = intern(o);
    expected.emplace_back(si, pi, oi, label);
    builder.Add(s, p, o, label);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_GT(terms.size(), 100000u);

  const auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const KnowledgeGraph& kg = *built;
  const Vocabulary& vocab = kg.vocabulary();
  ASSERT_EQ(vocab.size(), terms.size());
  for (uint32_t id = 0; id < terms.size(); ++id) {
    ASSERT_EQ(vocab.TermOf(id), terms[id]) << id;
  }
  ASSERT_EQ(kg.num_triples(), expected.size());
  size_t i = 0;
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    ASSERT_GT(kg.cluster_size(c), 0u);
    if (c > 0) {
      ASSERT_LT(kg.cluster_subject(c - 1), kg.cluster_subject(c));
    }
    for (uint64_t o = 0; o < kg.cluster_size(c); ++o, ++i) {
      const Triple& t = kg.triple(c, o);
      ASSERT_EQ(std::make_tuple(t.subject, t.predicate, t.object,
                                kg.label(c, o)),
                expected[i])
          << "cluster " << c << " offset " << o;
    }
  }
  EXPECT_EQ(i, expected.size());
}

// FNV-1a over cluster sizes, s/p/o ids, labels and every term's bytes.
uint64_t KgChecksum(const KnowledgeGraph& kg) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto bytes = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  auto u64 = [&bytes](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      const unsigned char b = static_cast<unsigned char>(v >> (8 * i));
      bytes(&b, 1);
    }
  };
  u64(kg.num_clusters());
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    u64(kg.cluster_size(c));
    for (uint64_t o = 0; o < kg.cluster_size(c); ++o) {
      const Triple& t = kg.triple(c, o);
      u64(t.subject);
      u64(t.predicate);
      u64(t.object);
      u64(kg.label(c, o) ? 1 : 0);
    }
  }
  const Vocabulary& vocab = kg.vocabulary();
  u64(vocab.size());
  for (uint32_t id = 0; id < vocab.size(); ++id) {
    const std::string_view term = vocab.TermOf(id);
    u64(term.size());
    bytes(term.data(), term.size());
  }
  return h;
}

TEST(KnowledgeGraphBuilderTest, GoldenChecksumOfMaterializedProfile) {
  // The DBPEDIA profile materialized the way kgbench does it: a subject per
  // cluster, a predicate per offset, objects from a shared 65,521-term pool.
  // The constant pins term ids, triple order, labels and clusters, so any
  // change to the build shows up here before it reaches a stored audit.
  const SyntheticKg syn = *MakeKg(DbpediaProfile(), 42);
  KnowledgeGraphBuilder builder;
  for (uint64_t c = 0; c < syn.num_clusters(); ++c) {
    const std::string s = "e" + std::to_string(c);
    for (uint64_t off = 0; off < syn.cluster_size(c); ++off) {
      builder.Add(s, "p" + std::to_string(off),
                  "v" + std::to_string((c * 7919 + off * 104729) % 65521),
                  syn.label(c, off));
    }
  }
  const KnowledgeGraph kg = *builder.Build();
  EXPECT_EQ(kg.num_triples(), 9344u);
  EXPECT_EQ(kg.num_clusters(), 2936u);
  EXPECT_EQ(kg.vocabulary().size(), 12259u);
  EXPECT_EQ(KgChecksum(kg), 0xb3150d1fa2be1f46ULL);
}

TEST(KnowledgeGraphBuilderTest, RejectsEmptyBuild) {
  KnowledgeGraphBuilder builder;
  EXPECT_FALSE(builder.Build().ok());
}

TEST(KnowledgeGraphBuilderTest, RejectsDuplicateTriples) {
  KnowledgeGraphBuilder builder;
  builder.Add("s", "p", "o", true);
  builder.Add("s", "p", "o", false);
  const auto result = builder.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(KnowledgeGraphBuilderTest, BuilderIsReusableAfterBuild) {
  KnowledgeGraphBuilder builder;
  builder.Add("s", "p", "o", true);
  ASSERT_TRUE(builder.Build().ok());
  EXPECT_EQ(builder.size(), 0u);
  builder.Add("s2", "p2", "o2", true);
  const auto second = builder.Build();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().num_triples(), 1u);
}

TEST(KnowledgeGraphBuilderTest, SingleClusterGraph) {
  KnowledgeGraphBuilder builder;
  for (int i = 0; i < 10; ++i) {
    builder.Add("s", "p", "o" + std::to_string(i), i % 2 == 0);
  }
  const KnowledgeGraph kg = *builder.Build();
  EXPECT_EQ(kg.num_clusters(), 1u);
  EXPECT_EQ(kg.cluster_size(0), 10u);
  EXPECT_DOUBLE_EQ(kg.TrueAccuracy(), 0.5);
}

TEST(KnowledgeGraphTest, AvgClusterSize) {
  const KnowledgeGraph kg = MakeSmallKg();
  EXPECT_DOUBLE_EQ(kg.AvgClusterSize(), 2.0);
}

}  // namespace
}  // namespace kgacc
