#include "kgacc/sampling/systematic.h"

#include <set>

#include "kgacc/kg/synthetic.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKg MakeKg(uint64_t clusters = 500) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = clusters;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.8;
  cfg.seed = 17;
  return *SyntheticKg::Create(cfg);
}

SampleBatch Draw(Sampler& sampler, Rng* rng) {
  SampleBatch batch;
  EXPECT_TRUE(sampler.NextBatch(rng, &batch).ok());
  return batch;
}

TEST(SystematicSamplerTest, EmitsFixedIntervalDraws) {
  const auto kg = MakeKg();  // ~1500 triples > 97 x 5: one pass per batch.
  ASSERT_GT(kg.num_triples(), kSystematicSkip * 5);
  SystematicSampler sampler(kg, SystematicConfig{.batch_size = 5});
  Rng rng(1);
  const SampleBatch batch = Draw(sampler, &rng);
  ASSERT_EQ(batch.size(), 5u);
  // Recover global indices and check the skip spacing within the pass.
  std::vector<uint64_t> globals;
  for (size_t i = 0; i < batch.size(); ++i) {
    const SampledUnit& unit = batch.unit(i);
    uint64_t global = batch.offsets(i)[0];
    for (uint64_t c = 0; c < unit.cluster; ++c) global += kg.cluster_size(c);
    globals.push_back(global);
  }
  for (size_t i = 1; i < globals.size(); ++i) {
    EXPECT_EQ(globals[i] - globals[i - 1], kSystematicSkip) << i;
  }
}

TEST(SystematicSamplerTest, WrapsWithFreshPhase) {
  const auto kg = MakeKg(10);  // ~30 triples < 97: every draw wraps.
  SystematicSampler sampler(kg, SystematicConfig{.batch_size = 50});
  Rng rng(2);
  const SampleBatch batch = Draw(sampler, &rng);
  EXPECT_EQ(batch.size(), 50u);  // Wrapping keeps batches full.
  for (const SampledUnit& unit : batch.units()) {
    EXPECT_LT(unit.cluster, kg.num_clusters());
    EXPECT_LT(batch.offsets(unit)[0], kg.cluster_size(unit.cluster));
  }
}

TEST(SystematicSamplerTest, LongRunFrequenciesAreUniform) {
  // ~150 triples < 2 x 97: every pass starts at a fresh phase in [0, 97), so
  // each position is hit with probability 1/97 per pass.
  const auto kg = MakeKg(50);
  SystematicSampler sampler(kg, SystematicConfig{.batch_size = 40});
  Rng rng(3);
  std::vector<double> hits(kg.num_clusters(), 0.0);
  double total = 0.0;
  for (int b = 0; b < 2000; ++b) {
    const SampleBatch batch = Draw(sampler, &rng);
    for (const SampledUnit& unit : batch.units()) {
      hits[unit.cluster] += 1.0;
      total += 1.0;
    }
  }
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    const double expected = total * kg.cluster_size(c) / kg.num_triples();
    EXPECT_NEAR(hits[c], expected, 0.15 * expected + 25.0) << c;
  }
}

TEST(SystematicSamplerTest, ResetDrawsNewStart) {
  const auto kg = MakeKg();
  SystematicSampler sampler(kg, SystematicConfig{.batch_size = 1});
  Rng rng(4);
  const SampleBatch first = Draw(sampler, &rng);
  sampler.Reset();
  const SampleBatch second = Draw(sampler, &rng);
  // Different random phases with overwhelming probability (skip = 97).
  // We only require both to be valid draws.
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
}

TEST(SystematicSamplerTest, UsesSrsEstimator) {
  const auto kg = MakeKg();
  SystematicSampler sampler(kg, SystematicConfig{});
  EXPECT_EQ(sampler.estimator(), EstimatorKind::kSrs);
  EXPECT_STREQ(sampler.name(), "SYS");
  EXPECT_EQ(sampler.stratum_weights(), nullptr);
}

}  // namespace
}  // namespace kgacc
