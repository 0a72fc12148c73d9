#include "kgacc/kg/synthetic.h"

#include <cmath>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKgConfig BaseConfig() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 1000;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.8;
  cfg.seed = 42;
  return cfg;
}

TEST(SyntheticKgTest, ValidatesConfig) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.num_clusters = 0;
  EXPECT_FALSE(SyntheticKg::Create(cfg).ok());

  cfg = BaseConfig();
  cfg.mean_cluster_size = 0.5;
  EXPECT_FALSE(SyntheticKg::Create(cfg).ok());

  cfg = BaseConfig();
  cfg.accuracy = 1.5;
  EXPECT_FALSE(SyntheticKg::Create(cfg).ok());

  cfg = BaseConfig();
  cfg.label_model = LabelModel::kBetaMixture;
  cfg.intra_cluster_rho = 0.0;  // Must be in (0,1) for the mixture.
  EXPECT_FALSE(SyntheticKg::Create(cfg).ok());

  cfg = BaseConfig();
  cfg.exact_total_triples = 10;  // Fewer than clusters.
  EXPECT_FALSE(SyntheticKg::Create(cfg).ok());
}

TEST(SyntheticKgTest, DeterministicForFixedSeed) {
  const auto a = *SyntheticKg::Create(BaseConfig());
  const auto b = *SyntheticKg::Create(BaseConfig());
  ASSERT_EQ(a.num_triples(), b.num_triples());
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  for (uint64_t c = 0; c < 100; ++c) {
    ASSERT_EQ(a.cluster_size(c), b.cluster_size(c));
    for (uint64_t o = 0; o < a.cluster_size(c); ++o) {
      ASSERT_EQ(a.label(c, o), b.label(c, o));
    }
  }
}

TEST(SyntheticKgTest, DifferentSeedsGiveDifferentLabels) {
  SyntheticKgConfig cfg = BaseConfig();
  const auto a = *SyntheticKg::Create(cfg);
  cfg.seed = 43;
  const auto b = *SyntheticKg::Create(cfg);
  int differing = 0;
  for (uint64_t c = 0; c < 200; ++c) {
    const uint64_t m = std::min(a.cluster_size(c), b.cluster_size(c));
    for (uint64_t o = 0; o < m; ++o) {
      differing += (a.label(c, o) != b.label(c, o)) ? 1 : 0;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(SyntheticKgTest, GeometricSizesHitTargetMean) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.num_clusters = 50000;
  cfg.mean_cluster_size = 4.5;
  const auto kg = *SyntheticKg::Create(cfg);
  const double mean = static_cast<double>(kg.num_triples()) /
                      static_cast<double>(kg.num_clusters());
  EXPECT_NEAR(mean, 4.5, 0.1);
  for (uint64_t c = 0; c < kg.num_clusters(); c += 97) {
    EXPECT_GE(kg.cluster_size(c), 1u);
  }
}

TEST(SyntheticKgTest, FixedSizesAreConstant) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.size_model = ClusterSizeModel::kFixed;
  cfg.mean_cluster_size = 5.0;
  const auto kg = *SyntheticKg::Create(cfg);
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    EXPECT_EQ(kg.cluster_size(c), 5u);
  }
  EXPECT_EQ(kg.num_triples(), 5000u);
}

TEST(SyntheticKgTest, ExactTotalIsRespected) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.exact_total_triples = 2800;
  const auto kg = *SyntheticKg::Create(cfg);
  EXPECT_EQ(kg.num_triples(), 2800u);
  // All clusters remain non-empty after the fix-up.
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    EXPECT_GE(kg.cluster_size(c), 1u);
  }
}

TEST(SyntheticKgTest, IidAccuracyNearTarget) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.num_clusters = 30000;
  const auto kg = *SyntheticKg::Create(cfg);
  EXPECT_NEAR(kg.TrueAccuracy(), 0.8, 0.01);
}

TEST(SyntheticKgTest, AccuracyZeroAndOneAreExact) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.accuracy = 1.0;
  const auto all_correct = *SyntheticKg::Create(cfg);
  EXPECT_DOUBLE_EQ(all_correct.TrueAccuracy(), 1.0);
  cfg.accuracy = 0.0;
  const auto all_wrong = *SyntheticKg::Create(cfg);
  EXPECT_DOUBLE_EQ(all_wrong.TrueAccuracy(), 0.0);
}

TEST(SyntheticKgTest, BalancedModelMatchesTargetTightly) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.label_model = LabelModel::kBalanced;
  cfg.accuracy = 0.54;
  cfg.num_clusters = 5000;
  const auto kg = *SyntheticKg::Create(cfg);
  // Stochastic rounding at cluster level keeps the global accuracy within a
  // small tolerance of the target.
  EXPECT_NEAR(kg.TrueAccuracy(), 0.54, 0.02);
}

TEST(SyntheticKgTest, BalancedClusterCompositionIsBalanced) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.label_model = LabelModel::kBalanced;
  cfg.accuracy = 0.5;
  cfg.size_model = ClusterSizeModel::kFixed;
  cfg.mean_cluster_size = 4.0;
  const auto kg = *SyntheticKg::Create(cfg);
  for (uint64_t c = 0; c < 200; ++c) {
    int correct = 0;
    for (uint64_t o = 0; o < kg.cluster_size(c); ++o) {
      correct += kg.label(c, o) ? 1 : 0;
    }
    EXPECT_EQ(correct, 2) << "cluster " << c;  // Exactly mu * M = 2.
  }
}

TEST(SyntheticKgTest, BetaMixtureClusterAccuraciesSpread) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.label_model = LabelModel::kBetaMixture;
  cfg.intra_cluster_rho = 0.3;
  cfg.accuracy = 0.85;
  const auto kg = *SyntheticKg::Create(cfg);
  // Cluster accuracies should vary (unlike the iid model where they are
  // all exactly mu) and average near mu.
  double sum = 0.0;
  double min_p = 1.0, max_p = 0.0;
  const int n = 2000;
  for (int c = 0; c < n; ++c) {
    const double p = kg.ClusterAccuracy(c % kg.num_clusters());
    sum += p;
    min_p = std::min(min_p, p);
    max_p = std::max(max_p, p);
  }
  EXPECT_NEAR(sum / n, 0.85, 0.02);
  EXPECT_LT(min_p, 0.6);   // Genuine dispersion.
  EXPECT_GT(max_p, 0.97);
}

TEST(SyntheticKgTest, ZipfSizesMatchTargetMean) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.size_model = ClusterSizeModel::kZipf;
  cfg.num_clusters = 50000;
  cfg.mean_cluster_size = 5.0;
  const auto kg = *SyntheticKg::Create(cfg);
  const double mean = static_cast<double>(kg.num_triples()) /
                      static_cast<double>(kg.num_clusters());
  EXPECT_NEAR(mean, 5.0, 0.4);
}

TEST(SyntheticKgTest, ZipfSizesHaveHeavyTail) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.size_model = ClusterSizeModel::kZipf;
  cfg.num_clusters = 50000;
  cfg.mean_cluster_size = 5.0;
  const auto kg = *SyntheticKg::Create(cfg);
  uint64_t max_size = 0;
  uint64_t singletons = 0;
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    max_size = std::max(max_size, kg.cluster_size(c));
    singletons += kg.cluster_size(c) == 1 ? 1 : 0;
  }
  // Hubs far beyond the mean coexist with a majority of singletons.
  EXPECT_GT(max_size, 100u);
  EXPECT_GT(singletons, kg.num_clusters() / 2);
}

TEST(SyntheticKgTest, ZipfRejectsUnreachableMean) {
  SyntheticKgConfig cfg = BaseConfig();
  cfg.size_model = ClusterSizeModel::kZipf;
  // Impossible with sizes capped at kZipfMaxClusterSize.
  cfg.mean_cluster_size = static_cast<double>(kZipfMaxClusterSize);
  EXPECT_FALSE(SyntheticKg::Create(cfg).ok());
}

TEST(SyntheticKgTest, TripleAtRoundTripsPrefixSums) {
  const auto kg = *SyntheticKg::Create(BaseConfig());
  uint64_t index = 0;
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    for (uint64_t o = 0; o < kg.cluster_size(c); ++o, ++index) {
      const TripleRef ref = kg.TripleAt(index);
      ASSERT_EQ(ref.cluster, c);
      ASSERT_EQ(ref.offset, o);
    }
  }
  EXPECT_EQ(index, kg.num_triples());
}

TEST(SyntheticKgTest, LargePopulationIsMemoryLazy) {
  // 100M-triple population must construct quickly with O(clusters) memory;
  // labels are computed on demand.
  SyntheticKgConfig cfg;
  cfg.num_clusters = 5000000;
  cfg.mean_cluster_size = 20.283;
  cfg.accuracy = 0.9;
  cfg.seed = 7;
  cfg.exact_total_triples = 101415011;
  const auto kg = *SyntheticKg::Create(cfg);
  EXPECT_EQ(kg.num_triples(), 101415011u);
  EXPECT_EQ(kg.num_clusters(), 5000000u);
  // Spot-check labels across the population.
  int correct = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    const uint64_t idx =
        (static_cast<uint64_t>(i) * 2654435761u) % kg.num_triples();
    const TripleRef ref = kg.TripleAt(idx);
    correct += kg.label(ref.cluster, ref.offset) ? 1 : 0;
  }
  EXPECT_NEAR(correct / static_cast<double>(probes), 0.9, 0.02);
}

}  // namespace
}  // namespace kgacc
