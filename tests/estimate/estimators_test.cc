// The design-based estimators of §2.4: hand computations against the
// two-pass reference forms, and unbiasedness of the library's streaming
// accumulator against live samplers.

#include <cmath>
#include <vector>

#include "kgacc/estimate/accumulator.h"
#include "kgacc/eval/annotator.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "reference/batch_estimators.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::vector<AnnotatedUnit> MakeSrsSample(uint32_t n, uint32_t tau) {
  std::vector<AnnotatedUnit> sample;
  for (uint32_t i = 0; i < n; ++i) {
    sample.push_back(AnnotatedUnit{.cluster = i, .cluster_population = 1,
                                   .drawn = 1,
                                   .correct = (i < tau) ? 1u : 0u});
  }
  return sample;
}

TEST(EstimateSrsTest, PointEstimateAndVariance) {
  const auto est = *EstimateSrs(MakeSrsSample(100, 80));
  EXPECT_DOUBLE_EQ(est.mu, 0.8);
  EXPECT_DOUBLE_EQ(est.variance, 0.8 * 0.2 / 100.0);
  EXPECT_EQ(est.n, 100u);
  EXPECT_EQ(est.tau, 80u);
}

TEST(EstimateSrsTest, DegenerateAllCorrectHasZeroVariance) {
  const auto est = *EstimateSrs(MakeSrsSample(30, 30));
  EXPECT_DOUBLE_EQ(est.mu, 1.0);
  EXPECT_DOUBLE_EQ(est.variance, 0.0);
}

TEST(EstimateSrsTest, EmptySampleIsError) {
  std::vector<AnnotatedUnit> empty;
  EXPECT_FALSE(EstimateSrs(empty).ok());
}

TEST(EstimateSrsTest, FinitePopulationCorrectionShrinksVariance) {
  const auto sample = MakeSrsSample(100, 80);
  const auto plain = *EstimateSrs(sample);
  const auto corrected = *EstimateSrs(sample, 400);
  // fpc = 1 - 100/400 = 0.75.
  EXPECT_NEAR(corrected.variance, 0.75 * plain.variance, 1e-15);
  EXPECT_EQ(corrected.population, 400u);
  EXPECT_EQ(plain.population, 0u);
}

TEST(EstimateSrsTest, FullCensusHasZeroVariance) {
  const auto sample = MakeSrsSample(100, 80);
  const auto census = *EstimateSrs(sample, 100);
  EXPECT_DOUBLE_EQ(census.variance, 0.0);
}

TEST(EstimateSrsTest, RejectsSampleLargerThanPopulation) {
  EXPECT_FALSE(EstimateSrs(MakeSrsSample(100, 80), 50).ok());
}

TEST(EstimateClusterTest, MeanOfClusterAccuracies) {
  const std::vector<AnnotatedUnit> sample = {
      {.cluster = 0, .cluster_population = 8, .drawn = 4, .correct = 4},
      {.cluster = 1, .cluster_population = 6, .drawn = 4, .correct = 2},
      {.cluster = 2, .cluster_population = 4, .drawn = 4, .correct = 0},
  };  // mu_i = 1.0, 0.5, 0.0
  const auto est = *EstimateCluster(sample);
  EXPECT_DOUBLE_EQ(est.mu, 0.5);
  // V = sum (mu_i - 0.5)^2 / (3 * 2) = (0.25 + 0 + 0.25) / 6.
  EXPECT_DOUBLE_EQ(est.variance, 0.5 / 6.0);
  EXPECT_EQ(est.num_units, 3u);
}

TEST(EstimateClusterTest, SingleUnitUsesConservativeVariance) {
  const std::vector<AnnotatedUnit> sample = {
      {.cluster = 0, .cluster_population = 5, .drawn = 3, .correct = 2}};
  const auto est = *EstimateCluster(sample);
  EXPECT_DOUBLE_EQ(est.variance, 0.25 / 3.0);
}

TEST(EstimateClusterTest, IdenticalClustersGiveZeroVariance) {
  std::vector<AnnotatedUnit> sample;
  for (int i = 0; i < 5; ++i) {
    sample.push_back(AnnotatedUnit{.cluster = static_cast<uint64_t>(i),
                                   .cluster_population = 3, .drawn = 3,
                                   .correct = 3});
  }
  const auto est = *EstimateCluster(sample);
  EXPECT_DOUBLE_EQ(est.mu, 1.0);
  EXPECT_DOUBLE_EQ(est.variance, 0.0);
}

TEST(EstimateRcsTest, RatioEstimate) {
  const std::vector<AnnotatedUnit> sample = {
      {.cluster = 0, .cluster_population = 4, .drawn = 4, .correct = 4},
      {.cluster = 1, .cluster_population = 2, .drawn = 2, .correct = 0},
  };
  const auto est = *EstimateRcs(sample);
  EXPECT_DOUBLE_EQ(est.mu, 4.0 / 6.0);
}

TEST(EstimateDispatchTest, RoutesOnKind) {
  const auto sample = MakeSrsSample(10, 5);
  EXPECT_DOUBLE_EQ((*Estimate(EstimatorKind::kSrs, sample)).mu, 0.5);
  EXPECT_TRUE(Estimate(EstimatorKind::kCluster, sample).ok());
}

// --- Unbiasedness properties against live samplers -----------------------

SyntheticKg MakeKgPop(double accuracy, LabelModel model, double rho) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 800;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = accuracy;
  cfg.label_model = model;
  cfg.intra_cluster_rho = rho;
  cfg.seed = 1234;
  return *SyntheticKg::Create(cfg);
}

double RunMeanOfEstimates(Sampler& sampler, int reps, int batches) {
  OracleAnnotator annotator;
  double sum = 0.0;
  SampleBatch batch_;
  for (int r = 0; r < reps; ++r) {
    Rng rng(1000 + r);
    sampler.Reset();
    EstimatorAccumulator accumulator(sampler.estimator());
    for (int b = 0; b < batches; ++b) {
      KGACC_CHECK(sampler.NextBatch(&rng, &batch_).ok());
      for (size_t u = 0; u < batch_.size(); ++u) {
        const SampledUnit& unit = batch_.unit(u);
        AnnotatedUnit annotated;
        annotated.cluster = unit.cluster;
        annotated.cluster_population = unit.cluster_population;
        annotated.drawn = unit.offset_count;
        for (uint64_t o : batch_.offsets(u)) {
          annotated.correct +=
              annotator.Annotate(sampler.kg(), TripleRef{unit.cluster, o},
                                 &rng)
                  ? 1
                  : 0;
        }
        accumulator.Add(annotated);
      }
    }
    sum += (*accumulator.Estimate()).mu;
  }
  return sum / reps;
}

TEST(UnbiasednessTest, SrsEstimatorIsUnbiased) {
  const auto kg = MakeKgPop(0.8, LabelModel::kIid, 0.0);
  SrsSampler sampler(kg, SrsConfig{.batch_size = 20});
  const double mean = RunMeanOfEstimates(sampler, 400, 3);
  // SE of the mean of 400 estimates of 60 draws each ~ 0.0026.
  EXPECT_NEAR(mean, kg.TrueAccuracy(), 0.012);
}

TEST(UnbiasednessTest, TwcsEstimatorIsUnbiasedUnderIidLabels) {
  const auto kg = MakeKgPop(0.7, LabelModel::kIid, 0.0);
  TwcsSampler sampler(kg, TwcsConfig{.batch_clusters = 10,
                                     .second_stage_size = 3});
  const double mean = RunMeanOfEstimates(sampler, 400, 3);
  EXPECT_NEAR(mean, kg.TrueAccuracy(), 0.015);
}

TEST(UnbiasednessTest, TwcsEstimatorIsUnbiasedUnderCorrelatedLabels) {
  const auto kg = MakeKgPop(0.85, LabelModel::kBetaMixture, 0.3);
  TwcsSampler sampler(kg, TwcsConfig{.batch_clusters = 10,
                                     .second_stage_size = 3});
  const double mean = RunMeanOfEstimates(sampler, 400, 3);
  EXPECT_NEAR(mean, kg.TrueAccuracy(), 0.015);
}

TEST(UnbiasednessTest, WcsEstimatorIsUnbiased) {
  const auto kg = MakeKgPop(0.6, LabelModel::kIid, 0.0);
  WcsSampler sampler(kg, ClusterConfig{.batch_clusters = 10});
  const double mean = RunMeanOfEstimates(sampler, 400, 3);
  EXPECT_NEAR(mean, kg.TrueAccuracy(), 0.015);
}

}  // namespace
}  // namespace kgacc
