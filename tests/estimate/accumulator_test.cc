#include "kgacc/estimate/accumulator.h"

#include <cmath>
#include <vector>

#include "kgacc/util/random.h"
#include "reference/batch_estimators.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

/// Mixed absolute/relative agreement bound for the streaming-vs-batch
/// comparisons whose summation order differs (cluster / RCS variances).
void ExpectAgrees(double streaming, double batch) {
  EXPECT_NEAR(streaming, batch, 1e-12 * std::max(1.0, std::abs(batch)));
}

AnnotatedUnit RandomUnit(Rng* rng, uint32_t max_drawn, uint32_t num_strata) {
  AnnotatedUnit unit;
  unit.cluster = rng->UniformInt(1 << 20);
  unit.drawn = static_cast<uint32_t>(rng->UniformInt(max_drawn)) + 1;
  // Mix extreme and interior per-unit accuracies.
  const double p = rng->Uniform() < 0.2 ? (rng->Uniform() < 0.5 ? 0.0 : 1.0)
                                        : rng->Uniform();
  for (uint32_t d = 0; d < unit.drawn; ++d) {
    unit.correct += rng->Bernoulli(p) ? 1 : 0;
  }
  unit.cluster_population = unit.drawn + rng->UniformInt(10);
  unit.stratum = static_cast<uint32_t>(rng->UniformInt(num_strata));
  return unit;
}

TEST(EstimatorAccumulatorTest, SrsMatchesBatchBitForBit) {
  Rng rng(101);
  std::vector<AnnotatedUnit> units;
  EstimatorAccumulator acc(EstimatorKind::kSrs);
  for (int i = 0; i < 5000; ++i) {
    AnnotatedUnit unit = RandomUnit(&rng, 1, 1);  // One triple per unit.
    units.push_back(unit);
    acc.Add(unit);
    if (i % 7 != 0) continue;  // Compare on a sweep of prefixes.
    const auto batch = *EstimateSrs(units);
    const auto streaming = *acc.Estimate();
    EXPECT_EQ(streaming.mu, batch.mu);
    EXPECT_EQ(streaming.variance, batch.variance);
    EXPECT_EQ(streaming.n, batch.n);
    EXPECT_EQ(streaming.tau, batch.tau);
    EXPECT_EQ(streaming.num_units, batch.num_units);
  }
}

TEST(EstimatorAccumulatorTest, SrsFinitePopulationCorrectionMatches) {
  Rng rng(102);
  std::vector<AnnotatedUnit> units;
  EstimatorAccumulator acc(EstimatorKind::kSrs);
  const uint64_t population = 4000;
  for (int i = 0; i < 3000; ++i) {
    AnnotatedUnit unit = RandomUnit(&rng, 1, 1);
    units.push_back(unit);
    acc.Add(unit);
  }
  const auto batch = *EstimateSrs(units, population);
  const auto streaming = *acc.Estimate(nullptr, population);
  EXPECT_EQ(streaming.mu, batch.mu);
  EXPECT_EQ(streaming.variance, batch.variance);
  EXPECT_EQ(streaming.population, batch.population);

  // Sample larger than the declared population is rejected identically.
  EXPECT_EQ(acc.Estimate(nullptr, 10).status().code(),
            EstimateSrs(units, 10).status().code());
  EXPECT_EQ(acc.Estimate(nullptr, 10).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EstimatorAccumulatorTest, ClusterMatchesBatchOnRandomStreams) {
  Rng rng(103);
  std::vector<AnnotatedUnit> units;
  EstimatorAccumulator acc(EstimatorKind::kCluster);
  for (int i = 0; i < 4000; ++i) {
    AnnotatedUnit unit = RandomUnit(&rng, 12, 1);
    units.push_back(unit);
    acc.Add(unit);
    if (i % 11 != 0) continue;
    const auto batch = *EstimateCluster(units);
    const auto streaming = *acc.Estimate();
    // The running mean adds the same terms in the same order: bit-exact.
    EXPECT_EQ(streaming.mu, batch.mu);
    ExpectAgrees(streaming.variance, batch.variance);
    EXPECT_EQ(streaming.num_units, batch.num_units);
  }
}

TEST(EstimatorAccumulatorTest, ClusterSingleUnitUsesWorstCaseVariance) {
  AnnotatedUnit unit;
  unit.drawn = 4;
  unit.correct = 3;
  std::vector<AnnotatedUnit> units;
  units.push_back(unit);
  EstimatorAccumulator acc(EstimatorKind::kCluster);
  acc.Add(unit);
  const auto batch = *EstimateCluster(units);
  const auto streaming = *acc.Estimate();
  EXPECT_EQ(streaming.mu, batch.mu);
  EXPECT_EQ(streaming.variance, batch.variance);
  EXPECT_EQ(streaming.variance, 0.25 / 4.0);
}

TEST(EstimatorAccumulatorTest, RcsMatchesBatchOnRandomStreams) {
  Rng rng(104);
  std::vector<AnnotatedUnit> units;
  EstimatorAccumulator acc(EstimatorKind::kRcs);
  for (int i = 0; i < 4000; ++i) {
    AnnotatedUnit unit = RandomUnit(&rng, 15, 1);
    units.push_back(unit);
    acc.Add(unit);
    if (i % 11 != 0) continue;
    const auto batch = *EstimateRcs(units);
    const auto streaming = *acc.Estimate();
    // Integer power sums reproduce the ratio exactly.
    EXPECT_EQ(streaming.mu, batch.mu);
    ExpectAgrees(streaming.variance, batch.variance);
  }
}

TEST(EstimatorAccumulatorTest, RcsDegenerateResidualsClampToZero) {
  // Every cluster fully correct: tau_i == M_i, so the linearized residuals
  // vanish and the power-sum expansion must not go negative.
  EstimatorAccumulator acc(EstimatorKind::kRcs);
  for (uint32_t m : {3u, 5u, 2u, 7u}) {
    AnnotatedUnit unit;
    unit.drawn = m;
    unit.correct = m;
    acc.Add(unit);
  }
  const auto streaming = *acc.Estimate();
  EXPECT_EQ(streaming.mu, 1.0);
  EXPECT_GE(streaming.variance, 0.0);
  EXPECT_LT(streaming.variance, 1e-12);
}

TEST(EstimatorAccumulatorTest, StratifiedMatchesBatchBitForBit) {
  Rng rng(105);
  const std::vector<double> weights = {0.5, 0.3, 0.15, 0.05};
  std::vector<AnnotatedUnit> units;
  EstimatorAccumulator acc(EstimatorKind::kStratified);
  for (int i = 0; i < 4000; ++i) {
    AnnotatedUnit unit = RandomUnit(&rng, 6, weights.size());
    // Leave stratum 3 unobserved early to exercise the imputation branch.
    if (i < 500 && unit.stratum == 3) unit.stratum = 0;
    units.push_back(unit);
    acc.Add(unit);
    if (i % 13 != 0) continue;
    const auto batch = *EstimateStratified(units, weights);
    const auto streaming = *acc.Estimate(&weights);
    EXPECT_EQ(streaming.mu, batch.mu);
    EXPECT_EQ(streaming.variance, batch.variance);
    EXPECT_EQ(streaming.num_units, batch.num_units);
  }
}

TEST(EstimatorAccumulatorTest, StratifiedErrorsMatchBatchSemantics) {
  EstimatorAccumulator acc(EstimatorKind::kStratified);
  AnnotatedUnit unit;
  unit.drawn = 2;
  unit.correct = 1;
  unit.stratum = 5;
  acc.Add(unit);

  EXPECT_EQ(acc.Estimate(nullptr).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<double> empty;
  EXPECT_EQ(acc.Estimate(&empty).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<double> narrow = {0.5, 0.5};  // Stratum 5 out of range.
  EXPECT_EQ(acc.Estimate(&narrow).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<double> wide(6, 1.0 / 6.0);
  EXPECT_TRUE(acc.Estimate(&wide).ok());
}

TEST(EstimatorAccumulatorTest, EmptyAccumulatorFailsLikeBatch) {
  for (const EstimatorKind kind :
       {EstimatorKind::kSrs, EstimatorKind::kCluster, EstimatorKind::kRcs,
        EstimatorKind::kStratified}) {
    EstimatorAccumulator acc(kind);
    const auto result = acc.Estimate();
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(EstimateDispatchTest, RcsKindRoutesToRatioEstimator) {
  std::vector<AnnotatedUnit> units;
  AnnotatedUnit a;
  a.drawn = 4;
  a.correct = 4;
  AnnotatedUnit b;
  b.drawn = 2;
  b.correct = 0;
  units.push_back(a);
  units.push_back(b);
  const auto via_kind = *Estimate(EstimatorKind::kRcs, units);
  const auto direct = *EstimateRcs(units);
  EXPECT_EQ(via_kind.mu, direct.mu);
  EXPECT_EQ(via_kind.variance, direct.variance);
  // Combined ratio 4/6, not the mean of per-cluster accuracies 1/2.
  EXPECT_DOUBLE_EQ(via_kind.mu, 4.0 / 6.0);
}

}  // namespace
}  // namespace kgacc
