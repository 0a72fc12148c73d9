#include "kgacc/sampling/stratified.h"

#include <cmath>

#include "kgacc/estimate/accumulator.h"
#include "kgacc/eval/annotator.h"
#include "kgacc/kg/synthetic.h"
#include "reference/batch_estimators.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKg MakeKg(uint64_t clusters = 1000, uint64_t seed = 13) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = clusters;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.8;
  cfg.seed = seed;
  return *SyntheticKg::Create(cfg);
}

SampleBatch Draw(Sampler& sampler, Rng* rng) {
  SampleBatch batch;
  EXPECT_TRUE(sampler.NextBatch(rng, &batch).ok());
  return batch;
}

TEST(StratifiedSamplerTest, WeightsSumToOne) {
  const auto kg = MakeKg();
  StratifiedSampler sampler(kg, StratifiedConfig{});
  const auto* weights = sampler.stratum_weights();
  ASSERT_NE(weights, nullptr);
  double total = 0.0;
  for (double w : *weights) total += w;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(weights->size(), sampler.num_strata());
}

TEST(StratifiedSamplerTest, UnitsCarryTheirStratum) {
  const auto kg = MakeKg();
  StratifiedSampler sampler(kg, StratifiedConfig{});
  Rng rng(1);
  for (int b = 0; b < 20; ++b) {
    const SampleBatch batch = Draw(sampler, &rng);
    for (const SampledUnit& unit : batch.units()) {
      const uint64_t size = kg.cluster_size(unit.cluster);
      // Recover the expected stratum from kStratumSizeBoundaries = {1, 3}
      // (non-empty strata here cover all three buckets).
      uint32_t expected = size <= 1 ? 0 : (size <= 3 ? 1 : 2);
      EXPECT_EQ(unit.stratum, expected) << "size " << size;
      EXPECT_EQ(unit.offset_count, 1u);
      EXPECT_LT(batch.offsets(unit)[0], size);
    }
  }
}

TEST(StratifiedSamplerTest, ProportionalAllocationLongRun) {
  const auto kg = MakeKg();
  StratifiedSampler sampler(kg, StratifiedConfig{.batch_size = 10});
  const auto weights = *sampler.stratum_weights();
  Rng rng(2);
  std::vector<double> counts(weights.size(), 0.0);
  double total = 0.0;
  for (int b = 0; b < 2000; ++b) {
    const SampleBatch batch = Draw(sampler, &rng);
    for (const SampledUnit& unit : batch.units()) {
      counts[unit.stratum] += 1.0;
      total += 1.0;
    }
  }
  for (size_t h = 0; h < weights.size(); ++h) {
    EXPECT_NEAR(counts[h] / total, weights[h], 0.01) << "stratum " << h;
  }
}

TEST(StratifiedSamplerTest, EstimatorIsUnbiased) {
  const auto kg = MakeKg(1500, 99);
  StratifiedSampler sampler(kg, StratifiedConfig{.batch_size = 30});
  OracleAnnotator annotator;
  double sum = 0.0;
  const int reps = 300;
  for (int r = 0; r < reps; ++r) {
    Rng rng(500 + r);
    sampler.Reset();
    EstimatorAccumulator accumulator(EstimatorKind::kStratified);
    for (int b = 0; b < 3; ++b) {
      const SampleBatch batch = Draw(sampler, &rng);
      for (size_t i = 0; i < batch.size(); ++i) {
        const SampledUnit& unit = batch.unit(i);
        AnnotatedUnit annotated;
        annotated.cluster = unit.cluster;
        annotated.cluster_population = unit.cluster_population;
        annotated.stratum = unit.stratum;
        annotated.drawn = 1;
        annotated.correct = annotator.Annotate(
            kg, TripleRef{unit.cluster, batch.offsets(i)[0]}, &rng) ? 1 : 0;
        accumulator.Add(annotated);
      }
    }
    sum += (*accumulator.Estimate(sampler.stratum_weights())).mu;
  }
  EXPECT_NEAR(sum / reps, kg.TrueAccuracy(), 0.015);
}

TEST(EstimateStratifiedTest, WeightedHandComputation) {
  // Two strata with W = {0.25, 0.75}: mu = 0.25*1.0 + 0.75*0.5 = 0.625.
  const std::vector<AnnotatedUnit> sample = {
      {.cluster = 0, .cluster_population = 1, .stratum = 0, .drawn = 4,
       .correct = 4},
      {.cluster = 1, .cluster_population = 1, .stratum = 1, .drawn = 4,
       .correct = 2},
  };
  const auto est = *EstimateStratified(sample, {0.25, 0.75});
  EXPECT_DOUBLE_EQ(est.mu, 0.625);
  // V = 0.25^2 * 0 + 0.75^2 * (0.25 / 4).
  EXPECT_DOUBLE_EQ(est.variance, 0.5625 * 0.0625);
}

TEST(EstimateStratifiedTest, UnobservedStratumImputesPooledMean) {
  const std::vector<AnnotatedUnit> sample = {
      {.cluster = 0, .cluster_population = 1, .stratum = 0, .drawn = 10,
       .correct = 8}};
  const auto est = *EstimateStratified(sample, {0.5, 0.5});
  EXPECT_DOUBLE_EQ(est.mu, 0.8);  // 0.5*0.8 (observed) + 0.5*0.8 (imputed).
  EXPECT_GT(est.variance, 0.25 * 0.25 * 0.9);  // Worst-case term present.
}

TEST(EstimateStratifiedTest, RejectsBadInputs) {
  const std::vector<AnnotatedUnit> sample = {
      {.cluster = 0, .cluster_population = 1, .stratum = 3, .drawn = 1,
       .correct = 1}};
  EXPECT_FALSE(EstimateStratified(sample, {0.5, 0.5}).ok());  // Stratum oob.
  EXPECT_FALSE(EstimateStratified({}, {1.0}).ok());
  EXPECT_FALSE(Estimate(EstimatorKind::kStratified, sample, nullptr).ok());
}

TEST(StratifiedSamplerTest, StratificationNeverHurtsVersusSrsVariance) {
  // With proportional allocation the stratified variance is at most the
  // SRS variance (up to noise) — check on a population whose accuracy is
  // correlated with cluster size (beta-mixture labels).
  SyntheticKgConfig cfg;
  cfg.num_clusters = 2000;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.8;
  cfg.label_model = LabelModel::kBetaMixture;
  cfg.intra_cluster_rho = 0.3;
  cfg.seed = 7;
  const auto kg = *SyntheticKg::Create(cfg);

  StratifiedSampler sampler(kg, StratifiedConfig{.batch_size = 60});
  OracleAnnotator annotator;
  double strat_ss = 0.0, srs_ss = 0.0;
  const double truth = kg.TrueAccuracy();
  const int reps = 400;
  for (int r = 0; r < reps; ++r) {
    Rng rng(3000 + r);
    sampler.Reset();
    EstimatorAccumulator accumulator(EstimatorKind::kStratified);
    const SampleBatch batch = Draw(sampler, &rng);
    uint32_t srs_tau = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const SampledUnit& unit = batch.unit(i);
      AnnotatedUnit annotated;
      annotated.stratum = unit.stratum;
      annotated.drawn = 1;
      annotated.correct = annotator.Annotate(
          kg, TripleRef{unit.cluster, batch.offsets(i)[0]}, &rng) ? 1 : 0;
      srs_tau += annotated.correct;
      accumulator.Add(annotated);
    }
    const double strat_mu =
        (*accumulator.Estimate(sampler.stratum_weights())).mu;
    const double srs_mu = static_cast<double>(srs_tau) / batch.size();
    strat_ss += (strat_mu - truth) * (strat_mu - truth);
    srs_ss += (srs_mu - truth) * (srs_mu - truth);
  }
  EXPECT_LE(strat_ss, srs_ss * 1.1);
}

}  // namespace
}  // namespace kgacc
