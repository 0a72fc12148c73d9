#include "kgacc/eval/cost_model.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(CostModelTest, PaperConstantsAre45And25Seconds) {
  EXPECT_DOUBLE_EQ(kEntityIdentificationSeconds, 45.0);
  EXPECT_DOUBLE_EQ(kFactVerificationSeconds, 25.0);
}

TEST(CostModelTest, Eq12HandComputation) {
  // |E_S| = 2 entities, |T_S| = 5 triples: 2*45 + 5*25 = 215 s.
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{0, 1});
  sample.MarkAnnotated(TripleRef{0, 2});
  sample.MarkAnnotated(TripleRef{1, 0});
  sample.MarkAnnotated(TripleRef{1, 1});
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(sample, 1), 215.0);
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(sample, 1) / 3600.0,
                   215.0 / 3600.0);
}

TEST(CostModelTest, RepeatedTriplesCostOnce) {
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{0, 0});
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(sample, 1), 45.0 + 25.0);
}

TEST(CostModelTest, EntityIdentificationAmortizedWithinCluster) {
  // Cluster sampling economics: 4 triples of one entity cost 45 + 4*25,
  // while 4 SRS triples of distinct entities cost 4*(45+25).
  AnnotatedSample clustered;
  for (uint64_t o = 0; o < 4; ++o) clustered.MarkAnnotated(TripleRef{7, o});
  AnnotatedSample scattered;
  for (uint64_t c = 0; c < 4; ++c) scattered.MarkAnnotated(TripleRef{c, 0});
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(clustered, 1), 145.0);
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(scattered, 1), 280.0);
}

TEST(CostModelTest, MultiAnnotatorMultipliesVerificationOnly) {
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(sample, 3), 45.0 + 3 * 25.0);
}

TEST(CostModelTest, EmptySampleCostsNothing) {
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(AnnotatedSample{}, 1), 0.0);
}

}  // namespace
}  // namespace kgacc
