#include "kgacc/eval/cost_model.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(CostModelTest, PaperDefaultsAre45And25Seconds) {
  const CostModel model;
  EXPECT_DOUBLE_EQ(model.entity_identification_seconds, 45.0);
  EXPECT_DOUBLE_EQ(model.fact_verification_seconds, 25.0);
  EXPECT_EQ(model.annotators_per_triple, 1);
}

TEST(CostModelTest, Eq12HandComputation) {
  // |E_S| = 2 entities, |T_S| = 5 triples: 2*45 + 5*25 = 215 s.
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{0, 1});
  sample.MarkAnnotated(TripleRef{0, 2});
  sample.MarkAnnotated(TripleRef{1, 0});
  sample.MarkAnnotated(TripleRef{1, 1});
  const CostModel model;
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(model, sample), 215.0);
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(model, sample) / 3600.0,
                   215.0 / 3600.0);
}

TEST(CostModelTest, RepeatedTriplesCostOnce) {
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{0, 0});
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(CostModel{}, sample), 45.0 + 25.0);
}

TEST(CostModelTest, EntityIdentificationAmortizedWithinCluster) {
  // Cluster sampling economics: 4 triples of one entity cost 45 + 4*25,
  // while 4 SRS triples of distinct entities cost 4*(45+25).
  AnnotatedSample clustered;
  for (uint64_t o = 0; o < 4; ++o) clustered.MarkAnnotated(TripleRef{7, o});
  AnnotatedSample scattered;
  for (uint64_t c = 0; c < 4; ++c) scattered.MarkAnnotated(TripleRef{c, 0});
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(CostModel{}, clustered), 145.0);
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(CostModel{}, scattered), 280.0);
}

TEST(CostModelTest, MultiAnnotatorMultipliesVerificationOnly) {
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  CostModel model;
  model.annotators_per_triple = 3;
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(model, sample), 45.0 + 3 * 25.0);
}

TEST(CostModelTest, CustomRatesAreApplied) {
  AnnotatedSample sample;
  sample.MarkAnnotated(TripleRef{0, 0});
  sample.MarkAnnotated(TripleRef{1, 0});
  CostModel model;
  model.entity_identification_seconds = 10.0;
  model.fact_verification_seconds = 1.0;
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(model, sample), 22.0);
}

TEST(CostModelTest, EmptySampleCostsNothing) {
  EXPECT_DOUBLE_EQ(AnnotationCostSeconds(CostModel{}, AnnotatedSample{}), 0.0);
}

}  // namespace
}  // namespace kgacc
