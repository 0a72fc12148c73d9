#include "kgacc/stats/ttest.h"

#include <cmath>

#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(PooledTTestTest, HandComputedStatistic) {
  // xs = {1..5}, ys = {2..6}: means 3 and 4, both variances 2.5.
  // Pooled SE = sqrt(2.5 * (1/5 + 1/5)) = 1, so t = -1, df = 8.
  const auto r = *PooledTTest({1, 2, 3, 4, 5}, {2, 3, 4, 5, 6});
  EXPECT_NEAR(r.t, -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.df, 8.0);
  EXPECT_GT(r.p_two_sided, 0.3);
  EXPECT_LT(r.p_two_sided, 0.4);
}

TEST(PooledTTestTest, IdenticalSamplesGivePOne) {
  const auto r = *PooledTTest({1, 2, 3}, {3, 2, 1});
  EXPECT_NEAR(r.t, 0.0, 1e-12);
  EXPECT_NEAR(r.p_two_sided, 1.0, 1e-12);
  EXPECT_FALSE(r.SignificantAt(0.01));
}

TEST(PooledTTestTest, ClearlySeparatedSamplesAreSignificant) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(10.0 + 0.1 * (i % 5));
    ys.push_back(20.0 + 0.1 * (i % 5));
  }
  const auto r = *PooledTTest(xs, ys);
  EXPECT_LT(r.p_two_sided, 1e-10);
  EXPECT_TRUE(r.SignificantAt(0.01));
}

TEST(PooledTTestTest, DegenerateZeroVarianceSamples) {
  const auto same = *PooledTTest({5, 5, 5}, {5, 5, 5});
  EXPECT_DOUBLE_EQ(same.p_two_sided, 1.0);
  const auto different = *PooledTTest({5, 5, 5}, {6, 6, 6});
  EXPECT_DOUBLE_EQ(different.p_two_sided, 0.0);
}

TEST(PooledTTestTest, RequiresTwoObservationsEach) {
  EXPECT_FALSE(PooledTTest({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(PooledTTest({1.0, 2.0}, {}).ok());
}

TEST(TTestCalibrationTest, FalsePositiveRateMatchesAlpha) {
  // Under the null (same distribution), p < 0.05 should fire ~5% of the
  // time. This is the property the paper's significance marks rely on.
  Rng rng(2024);
  int fp = 0;
  const int trials = 2000;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> xs(20), ys(20);
    for (int i = 0; i < 20; ++i) {
      xs[i] = rng.Normal();
      ys[i] = rng.Normal();
    }
    if ((*PooledTTest(xs, ys)).SignificantAt(0.05)) ++fp;
  }
  EXPECT_NEAR(fp / static_cast<double>(trials), 0.05, 0.015);
}

}  // namespace
}  // namespace kgacc
