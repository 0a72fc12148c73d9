#include "kgacc/sampling/cluster.h"

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "kgacc/kg/knowledge_graph.h"
#include "kgacc/kg/synthetic.h"
#include "reference/plain_vose.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SampleBatch Draw(Sampler& sampler, Rng* rng) {
  SampleBatch batch;
  EXPECT_TRUE(sampler.NextBatch(rng, &batch).ok());
  return batch;
}

SyntheticKg MakeKg(uint64_t clusters = 300, double mean_size = 4.0) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = clusters;
  cfg.mean_cluster_size = mean_size;
  cfg.accuracy = 0.85;
  cfg.seed = 21;
  return *SyntheticKg::Create(cfg);
}

TEST(TwcsSamplerTest, SecondStageCapsAtM) {
  const auto kg = MakeKg();
  TwcsSampler sampler(kg, TwcsConfig{.batch_clusters = 50,
                                     .second_stage_size = 3});
  Rng rng(1);
  const SampleBatch batch = Draw(sampler, &rng);
  ASSERT_EQ(batch.size(), 50u);
  for (const SampledUnit& unit : batch.units()) {
    const uint64_t m_i = kg.cluster_size(unit.cluster);
    const auto offsets = batch.offsets(unit);
    EXPECT_EQ(offsets.size(), std::min<uint64_t>(m_i, 3));
    EXPECT_EQ(unit.cluster_population, m_i);
    // Offsets are distinct and in range (second stage is SRS-WOR).
    std::set<uint64_t> distinct(offsets.begin(), offsets.end());
    EXPECT_EQ(distinct.size(), offsets.size());
    for (uint64_t o : offsets) EXPECT_LT(o, m_i);
  }
}

TEST(TwcsSamplerTest, FirstStageIsPps) {
  // Empirical first-stage frequencies must be proportional to cluster size.
  const auto kg = MakeKg(100, 5.0);
  TwcsSampler sampler(kg, TwcsConfig{.batch_clusters = 100,
                                     .second_stage_size = 3});
  Rng rng(2);
  std::vector<double> hits(kg.num_clusters(), 0.0);
  const int batches = 3000;
  for (int b = 0; b < batches; ++b) {
    const SampleBatch batch_ = Draw(sampler, &rng);
    for (const SampledUnit& unit : batch_.units()) {
      hits[unit.cluster] += 1.0;
    }
  }
  const double total = 100.0 * batches;
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    const double expected = total * static_cast<double>(kg.cluster_size(c)) /
                            static_cast<double>(kg.num_triples());
    EXPECT_NEAR(hits[c], expected, 5.0 * std::sqrt(expected) + 20.0)
        << "cluster " << c;
  }
}

TEST(TwcsSamplerTest, EstimatorKindIsCluster) {
  const auto kg = MakeKg();
  TwcsSampler sampler(kg, TwcsConfig{});
  EXPECT_EQ(sampler.estimator(), EstimatorKind::kCluster);
  EXPECT_STREQ(sampler.name(), "TWCS");
}

TEST(TwcsSamplerTest, SingletonClustersContributeOneTriple) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 50;
  cfg.mean_cluster_size = 1.0;  // All singleton clusters.
  cfg.accuracy = 0.5;
  cfg.seed = 5;
  const auto kg = *SyntheticKg::Create(cfg);
  TwcsSampler sampler(kg, TwcsConfig{.batch_clusters = 10,
                                     .second_stage_size = 3});
  Rng rng(3);
  const SampleBatch batch_ = Draw(sampler, &rng);
  for (const SampledUnit& unit : batch_.units()) {
    EXPECT_EQ(unit.offset_count, 1u);
    EXPECT_EQ(batch_.offsets(unit)[0], 0u);
  }
}

TEST(WcsSamplerTest, AnnotatesWholeClusters) {
  const auto kg = MakeKg();
  WcsSampler sampler(kg, ClusterConfig{.batch_clusters = 20});
  Rng rng(4);
  const SampleBatch batch_ = Draw(sampler, &rng);
  for (const SampledUnit& unit : batch_.units()) {
    EXPECT_EQ(unit.offset_count, kg.cluster_size(unit.cluster));
  }
  EXPECT_STREQ(sampler.name(), "WCS");
}

TEST(RcsSamplerTest, UniformOverClusters) {
  const auto kg = MakeKg(50, 4.0);
  RcsSampler sampler(kg, ClusterConfig{.batch_clusters = 100});
  Rng rng(5);
  std::vector<double> hits(kg.num_clusters(), 0.0);
  const int batches = 2000;
  for (int b = 0; b < batches; ++b) {
    const SampleBatch batch_ = Draw(sampler, &rng);
    for (const SampledUnit& unit : batch_.units()) {
      hits[unit.cluster] += 1.0;
    }
  }
  const double expected = 100.0 * batches / static_cast<double>(kg.num_clusters());
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    EXPECT_NEAR(hits[c], expected, 5.0 * std::sqrt(expected)) << c;
  }
  EXPECT_STREQ(sampler.name(), "RCS");
}

std::vector<uint64_t> DrawSecondStage(uint64_t cluster_size, int m, Rng* rng) {
  std::vector<uint64_t> out;
  FlatSet64 scratch;
  internal::DrawSecondStageAppend(cluster_size, m, rng, &out, &scratch);
  return out;
}

TEST(SecondStageTest, DrawsExactlyMinOfSizeAndM) {
  Rng rng(6);
  EXPECT_EQ(DrawSecondStage(10, 3, &rng).size(), 3u);
  EXPECT_EQ(DrawSecondStage(2, 3, &rng).size(), 2u);
  EXPECT_EQ(DrawSecondStage(3, 3, &rng).size(), 3u);
  EXPECT_EQ(DrawSecondStage(5, 0, &rng).size(), 5u);  // Whole.
}

TEST(SecondStageTest, WholeClusterIsIdentityRange) {
  Rng rng(7);
  const auto offsets = DrawSecondStage(4, 0, &rng);
  ASSERT_EQ(offsets.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(offsets[i], i);
}

TEST(SecondStageTest, SecondStageOffsetsAreUnbiased) {
  // Every offset of a size-6 cluster should be drawn equally often at m=2.
  Rng rng(8);
  std::vector<int> counts(6, 0);
  const int reps = 30000;
  for (int r = 0; r < reps; ++r) {
    for (uint64_t o : DrawSecondStage(6, 2, &rng)) ++counts[o];
  }
  const double expected = reps * 2.0 / 6.0;
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(counts[i], expected, 0.05 * expected) << i;
  }
}

TEST(BuildSizeAliasTableTest, ProbabilitiesMatchSizes) {
  const auto kg = MakeKg(10, 3.0);
  const auto table = internal::BuildSizeAliasTable(kg);
  ASSERT_EQ(table->size(), kg.num_clusters());
  // Rebuild each cluster's selection probability from the buckets: its own
  // bucket's threshold plus the rejected mass of every bucket aliasing it.
  std::vector<double> p(table->size(), 0.0);
  for (size_t b = 0; b < table->size(); ++b) {
    p[b] += table->threshold(b);
    p[table->alias(b)] += 1.0 - table->threshold(b);
  }
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    EXPECT_NEAR(p[c] / static_cast<double>(table->size()),
                static_cast<double>(kg.cluster_size(c)) /
                    static_cast<double>(kg.num_triples()),
                1e-12);
  }
}

TEST(BuildSizeAliasTableTest, BitIdenticalToPlainVose) {
  // Bucket for bucket, the textbook Vose build over the same sizes.
  for (const SyntheticKg& kg : {MakeKg(10, 3.0), MakeKg(50000, 3.2)}) {
    const auto table = internal::BuildSizeAliasTable(kg);
    std::vector<uint64_t> sizes(kg.num_clusters());
    for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
      sizes[c] = kg.cluster_size(c);
    }
    const PlainVose reference = PlainVose::FromCounts(sizes);
    EXPECT_EQ(reference.FirstMismatch(*table), table->size())
        << kg.num_clusters() << " clusters";
  }
}

/// A view that forwards every call to another view. It is not a
/// `KnowledgeGraph`, so a table built over it reads each size through the
/// virtual `KgView` call. `extra_triples` makes it misreport its total.
class ForwardingKg : public KgView {
 public:
  explicit ForwardingKg(const KgView& inner, uint64_t extra_triples = 0)
      : inner_(inner), extra_triples_(extra_triples) {}
  uint64_t num_triples() const override {
    return inner_.num_triples() + extra_triples_;
  }
  uint64_t num_clusters() const override { return inner_.num_clusters(); }
  uint64_t cluster_size(uint64_t cluster) const override {
    return inner_.cluster_size(cluster);
  }
  bool label(uint64_t cluster, uint64_t offset) const override {
    return inner_.label(cluster, offset);
  }
  TripleRef TripleAt(uint64_t global_index) const override {
    return inner_.TripleAt(global_index);
  }
  double TrueAccuracy() const override { return inner_.TrueAccuracy(); }

 private:
  const KgView& inner_;
  uint64_t extra_triples_;
};

/// A materialized KG whose cluster c holds `sizes[c]` triples.
KnowledgeGraph KgWithSizes(const std::vector<uint64_t>& sizes) {
  KnowledgeGraphBuilder builder;
  for (size_t c = 0; c < sizes.size(); ++c) {
    const std::string subject = "e" + std::to_string(c);
    for (uint64_t off = 0; off < sizes[c]; ++off) {
      builder.Add(subject, "p" + std::to_string(off), "o", off % 3 != 0);
    }
  }
  return *builder.Build();
}

TEST(BuildSizeAliasTableTest, BothSizePathsMatchPlainVose) {
  Rng rng(83);
  // Mostly small counts, some mid-sized ones and one 10^6; then all-equal
  // counts, every bucket scaled to exactly 1.
  std::vector<uint64_t> mixed(3000);
  for (uint64_t& c : mixed) c = 1 + rng.UniformInt(8);
  for (size_t i = 0; i < 60; ++i) mixed[50 * i + 7] = 63 + i % 3;
  mixed[1234] = 1000000;
  const std::vector<std::vector<uint64_t>> cases = {
      mixed, std::vector<uint64_t>(700, 7)};
  for (const std::vector<uint64_t>& sizes : cases) {
    const KnowledgeGraph kg = KgWithSizes(sizes);
    ASSERT_EQ(kg.num_clusters(), sizes.size());
    for (size_t c = 0; c < sizes.size(); ++c) {
      ASSERT_EQ(kg.cluster_size(c), sizes[c]) << c;
    }
    const PlainVose reference = PlainVose::FromCounts(sizes);
    const auto fast = internal::BuildSizeAliasTable(kg);
    const auto virtual_path =
        internal::BuildSizeAliasTable(ForwardingKg(kg));
    EXPECT_EQ(reference.FirstMismatch(*fast), sizes.size());
    EXPECT_EQ(reference.FirstMismatch(*virtual_path), sizes.size());
  }
}

TEST(BuildSizeAliasTableDeathTest, SizesThatMissTheTotalAbort) {
  // A KnowledgeGraph cannot miss its own total, so a view that forwards
  // its sizes misreports the total.
  const KnowledgeGraph kg = KgWithSizes({3, 5, 8});
  EXPECT_DEATH(internal::BuildSizeAliasTable(ForwardingKg(kg, 1)),
               "sum == total");
}

}  // namespace
}  // namespace kgacc
