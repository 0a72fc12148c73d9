#include "kgacc/sampling/sample.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(AnnotatedSampleTest, StartsEmpty) {
  AnnotatedSample sample;
  EXPECT_EQ(sample.num_distinct_entities(), 0u);
  EXPECT_EQ(sample.num_distinct_triples(), 0u);
}

TEST(AnnotatedSampleTest, ClearForgetsTheDistinctSets) {
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{1, 2});
  sample.Clear();
  EXPECT_EQ(sample.num_distinct_entities(), 0u);
  EXPECT_EQ(sample.num_distinct_triples(), 0u);
  EXPECT_TRUE(sample.MarkAnnotated(TripleRef{1, 2}));  // New again.
  EXPECT_EQ(sample.num_distinct_entities(), 1u);
}

TEST(AnnotatedSampleTest, MarkAnnotatedTracksDistinctTriples) {
  AnnotatedSample sample;
  EXPECT_TRUE(sample.MarkAnnotated(TripleRef{3, 1}));
  EXPECT_TRUE(sample.MarkAnnotated(TripleRef{3, 2}));
  EXPECT_FALSE(sample.MarkAnnotated(TripleRef{3, 1}));  // Re-draw is free.
  EXPECT_EQ(sample.num_distinct_triples(), 2u);
  EXPECT_EQ(sample.num_distinct_entities(), 1u);
}

TEST(AnnotatedSampleTest, DistinctEntitiesAcrossClusters) {
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{1, 0});
  sample.MarkAnnotated(TripleRef{2, 0});
  sample.MarkAnnotated(TripleRef{1, 1});
  EXPECT_EQ(sample.num_distinct_entities(), 3u);
  EXPECT_EQ(sample.num_distinct_triples(), 4u);
}

TEST(AnnotatedSampleTest, KeysDistinguishClusterAndOffset) {
  // (1, 0) and (0, 1) must not collide in the distinct-triple set.
  AnnotatedSample sample;
  EXPECT_TRUE(sample.MarkAnnotated(TripleRef{1, 0}));
  EXPECT_TRUE(sample.MarkAnnotated(TripleRef{0, 1}));
  EXPECT_EQ(sample.num_distinct_triples(), 2u);
}

TEST(AnnotatedSampleTest, LargeClusterIdsSupported) {
  AnnotatedSample sample;
  // SYN 100M scale: cluster ids in the millions.
  EXPECT_TRUE(sample.MarkAnnotated(TripleRef{4999999, 19}));
  EXPECT_FALSE(sample.MarkAnnotated(TripleRef{4999999, 19}));
  EXPECT_EQ(sample.num_distinct_entities(), 1u);
}

}  // namespace
}  // namespace kgacc
