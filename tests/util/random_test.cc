#include "kgacc/util/random.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "kgacc/kg/profiles.h"
#include "kgacc/util/flat_set.h"
#include "reference/plain_vose.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(Mix64Test, IsDeterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

TEST(Mix64Test, AvalanchesLowBits) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  const int trials = 64;
  for (int bit = 0; bit < trials; ++bit) {
    const uint64_t a = Mix64(0x1234567890abcdefULL);
    const uint64_t b = Mix64(0x1234567890abcdefULL ^ (uint64_t{1} << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / trials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(ToUnitDoubleTest, StaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = ToUnitDouble(rng.Next());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng rng(5);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Reseed(5);
  EXPECT_EQ(rng.Next(), first);
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(17);
  const uint64_t k = 10;
  std::vector<int> counts(k, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(k)];
  for (uint64_t i = 0; i < k; ++i) {
    EXPECT_NEAR(counts[i], n / static_cast<double>(k), 500.0);
  }
}

TEST(RngTest, UniformIntOfOneIsZero) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, NormalHasUnitMoments) {
  Rng rng(23);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesShape) {
  Rng rng(31);
  for (const double shape : {0.5, 1.0, 2.5, 10.0}) {
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) sum += rng.Gamma(shape);
    EXPECT_NEAR(sum / n, shape, 0.08 * shape + 0.02) << "shape=" << shape;
  }
}

TEST(RngTest, BetaMeanMatchesParameters) {
  Rng rng(37);
  const double a = 2.0, b = 5.0;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Beta(a, b);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, a / (a + b), 0.01);
}

std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k,
                                               Rng* rng) {
  std::vector<uint64_t> out;
  FlatSet64 scratch;
  SampleWithoutReplacementAppend(n, k, rng, &out, &scratch);
  return out;
}

TEST(SampleWithoutReplacementTest, ProducesDistinctIndices) {
  Rng rng(41);
  const auto sample = SampleWithoutReplacement(100, 30, &rng);
  ASSERT_EQ(sample.size(), 30u);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (uint64_t x : sample) EXPECT_LT(x, 100u);
}

TEST(SampleWithoutReplacementTest, FullDrawIsPermutation) {
  Rng rng(43);
  const auto sample = SampleWithoutReplacement(10, 10, &rng);
  std::set<uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SampleWithoutReplacementTest, ZeroDrawIsEmpty) {
  Rng rng(47);
  EXPECT_TRUE(SampleWithoutReplacement(5, 0, &rng).empty());
}

TEST(SampleWithoutReplacementTest, EveryElementEquallyLikely) {
  Rng rng(53);
  const uint64_t n = 20, k = 5;
  std::vector<int> counts(n, 0);
  const int reps = 40000;
  for (int r = 0; r < reps; ++r) {
    for (uint64_t x : SampleWithoutReplacement(n, k, &rng)) ++counts[x];
  }
  const double expected = reps * static_cast<double>(k) / n;
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], expected, 0.06 * expected) << "index " << i;
  }
}

/// Each outcome's selection probability, rebuilt from the buckets: outcome
/// i owns threshold(i) of its own bucket plus the rejected remainder of
/// every bucket aliasing to it, each bucket drawn with chance 1/n.
std::vector<double> OutcomeProbabilities(const AliasTable& table) {
  const size_t n = table.size();
  std::vector<double> p(n, 0.0);
  for (size_t b = 0; b < n; ++b) {
    p[b] += table.threshold(b);
    p[table.alias(b)] += 1.0 - table.threshold(b);
  }
  for (double& x : p) x /= static_cast<double>(n);
  return p;
}

/// The table over `counts`, with their exact total.
AliasTable FromCounts(const std::vector<uint64_t>& counts) {
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  return AliasTable(counts.size(), total,
                    [&counts](size_t i) { return counts[i]; });
}

void ExpectBitIdentical(const std::vector<uint64_t>& counts) {
  const AliasTable table = FromCounts(counts);
  const PlainVose ref = PlainVose::FromCounts(counts);
  ASSERT_EQ(table.size(), counts.size());
  const size_t b = ref.FirstMismatch(table);
  ASSERT_EQ(b, counts.size())
      << "n = " << counts.size() << ", bucket " << b << ": "
      << table.threshold(b) << " -> " << table.alias(b) << " vs "
      << ref.prob[b] << " -> " << ref.alias[b];
}

TEST(AliasTableTest, BitIdenticalToPlainVose) {
  Rng rng(59);
  for (const size_t n : {1u, 2u, 7u, 1000u, 100000u}) {
    // Cluster-size-like counts (many ties), with some zeros.
    std::vector<uint64_t> counts(n);
    for (uint64_t& c : counts) {
      c = rng.Uniform() < 0.05 ? 0 : 1 + rng.UniformInt(40);
    }
    counts[0] = 3;  // keep the total positive at n = 1
    ExpectBitIdentical(counts);
  }
  // The procedural dbpedia-1m population: the DBPEDIA profile scaled 107x,
  // the KG kgaccd reopens audits over.
  DatasetProfile profile = DbpediaProfile();
  profile.num_facts *= 107;
  profile.num_clusters *= 107;
  const SyntheticKg kg = *MakeKg(profile, 42);
  std::vector<uint64_t> sizes(kg.num_clusters());
  for (uint64_t c = 0; c < kg.num_clusters(); ++c) {
    sizes[c] = kg.cluster_size(c);
  }
  ASSERT_EQ(sizes.size(), 314152u);
  ExpectBitIdentical(sizes);
  // Mostly small counts, with one in ten drawn up to 10^6.
  std::vector<uint64_t> wide(20000);
  for (uint64_t& c : wide) {
    c = rng.Uniform() < 0.9 ? 1 + rng.UniformInt(8)
                            : 1 + rng.UniformInt(1000000);
  }
  ExpectBitIdentical(wide);
  // One nonzero count among zeros: one large bucket absorbs every small.
  std::vector<uint64_t> lone(1000, 0);
  lone[617] = 5;
  ExpectBitIdentical(lone);
  // All-equal counts scale to exactly 1: no smalls, nothing to pair.
  ExpectBitIdentical(std::vector<uint64_t>(4096, 7));
  // Half the counts scale to exactly 1 between smalls and larges: a
  // scaled 1 is large, so it keeps its own bucket.
  std::vector<uint64_t> ones;
  for (int k = 0; k < 1024; ++k) ones.insert(ones.end(), {1, 2, 3, 2});
  ExpectBitIdentical(ones);
  // Large random counts (total below 2^53) leave floating-point residuals
  // on both worklists.
  std::vector<uint64_t> big(5000);
  for (uint64_t& c : big) c = rng.UniformInt(uint64_t{1} << 40);
  ExpectBitIdentical(big);
}

TEST(AliasTableDeathTest, CountsThatMissTheTotalAbort) {
  const std::vector<uint64_t> counts = {2, 3, 4};
  EXPECT_DEATH(AliasTable(3, 10, [&](size_t i) { return counts[i]; }),
               "sum == total");
  EXPECT_DEATH(AliasTable(3, 8, [&](size_t i) { return counts[i]; }),
               "sum == total");
}

TEST(AliasTableTest, MatchesWeightsEmpirically) {
  const std::vector<uint64_t> counts = {1, 2, 3, 4};
  const AliasTable table = FromCounts(counts);
  ASSERT_EQ(table.size(), 4u);
  Rng rng(61);
  std::vector<int> hits(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++hits[table.Sample(&rng)];
  for (size_t i = 0; i < counts.size(); ++i) {
    const double expected = n * static_cast<double>(counts[i]) / 10.0;
    EXPECT_NEAR(hits[i], expected, 0.03 * expected + 100) << "bucket " << i;
  }
}

TEST(AliasTableTest, NormalizedProbabilities) {
  const std::vector<double> p = OutcomeProbabilities(FromCounts({2, 6}));
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.75);
  const std::vector<double> q = OutcomeProbabilities(FromCounts({1, 2, 3, 4}));
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_NEAR(q[i], (i + 1) / 10.0, 1e-15) << "outcome " << i;
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  const AliasTable table = FromCounts({0, 1, 0});
  Rng rng(67);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(table.Sample(&rng), 1u);
}

TEST(AliasTableTest, SingleOutcome) {
  const AliasTable table = FromCounts({5});
  Rng rng(71);
  EXPECT_EQ(table.Sample(&rng), 0u);
}

TEST(AliasTableTest, ManyUniformWeightsStayUniform) {
  const AliasTable table = FromCounts(std::vector<uint64_t>(1000, 1));
  Rng rng(73);
  std::vector<int> counts(1000, 0);
  const int n = 1000000;
  for (int i = 0; i < n; ++i) ++counts[table.Sample(&rng)];
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*mn, 700);
  EXPECT_LT(*mx, 1350);
}

}  // namespace
}  // namespace kgacc
