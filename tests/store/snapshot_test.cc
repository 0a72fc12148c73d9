// Component-level snapshot round trips: every serialized piece of session
// state — RNG, each estimator-accumulator variant, the annotated sample,
// the HPD warm carry, and each stateful sampler design — must restore to a
// state that behaves *identically* going forward, not merely approximately.

#include <cstring>
#include <vector>

#include "kgacc/estimate/accumulator.h"
#include "kgacc/eval/session.h"
#include "kgacc/intervals/ahpd.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/util/codec.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKg TestKg(uint64_t seed = 21) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 200;
  cfg.mean_cluster_size = 4.0;
  cfg.accuracy = 0.85;
  cfg.seed = seed;
  return *SyntheticKg::Create(cfg);
}

TEST(SnapshotTest, RngRoundTripContinuesTheIdenticalStream) {
  Rng original(42);
  // Consume an odd number of normals so the spare-value cache is armed —
  // the subtle half of the state a naive save would drop.
  for (int i = 0; i < 7; ++i) original.Normal();
  for (int i = 0; i < 13; ++i) original.Next();
  ByteWriter w;
  original.SaveState(&w);
  Rng restored(999);  // Different seed: everything must come from the snapshot.
  ByteReader r(w.span());
  ASSERT_TRUE(restored.LoadState(&r).ok());
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(original.Next(), restored.Next());
  }
  // And the buffered normal: interleave draws of every flavor.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(original.Normal(), restored.Normal());
    ASSERT_EQ(original.Uniform(), restored.Uniform());
    ASSERT_EQ(original.Gamma(2.5), restored.Gamma(2.5));
  }
}

TEST(SnapshotTest, RngRejectsTruncatedAndAllZeroState) {
  Rng rng(1);
  ByteWriter w;
  rng.SaveState(&w);
  ByteReader truncated(w.span().subspan(0, w.size() - 1));
  Rng target(2);
  EXPECT_FALSE(target.LoadState(&truncated).ok());
  ByteWriter zeros;
  for (int i = 0; i < 4; ++i) zeros.PutFixed64(0);
  zeros.PutBool(false);
  zeros.PutDouble(0.0);
  ByteReader zero_reader(zeros.span());
  EXPECT_FALSE(target.LoadState(&zero_reader).ok());
}

AnnotatedUnit RandomUnit(Rng* rng, uint32_t strata) {
  AnnotatedUnit unit;
  unit.cluster = rng->UniformInt(1000);
  unit.cluster_population = 1 + rng->UniformInt(40);
  unit.stratum = static_cast<uint32_t>(rng->UniformInt(strata));
  unit.drawn = 1 + static_cast<uint32_t>(
                       rng->UniformInt(unit.cluster_population));
  unit.correct = static_cast<uint32_t>(rng->UniformInt(unit.drawn + 1));
  return unit;
}

TEST(SnapshotTest, EveryAccumulatorVariantRoundTripsMidStream) {
  const EstimatorKind kinds[] = {EstimatorKind::kSrs, EstimatorKind::kCluster,
                                 EstimatorKind::kRcs,
                                 EstimatorKind::kStratified};
  const std::vector<double> weights = {0.5, 0.3, 0.2};
  for (const EstimatorKind kind : kinds) {
    Rng rng(static_cast<uint64_t>(kind) + 100);
    EstimatorAccumulator original(kind);
    for (int i = 0; i < 200; ++i) original.Add(RandomUnit(&rng, 3));
    ByteWriter w;
    original.SaveState(&w);
    EstimatorAccumulator restored(kind);
    ByteReader r(w.span());
    ASSERT_TRUE(restored.LoadState(&r).ok());
    EXPECT_TRUE(r.empty());
    // Identical estimates now...
    const auto want = original.Estimate(&weights);
    const auto got = restored.Estimate(&weights);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want->mu, got->mu);
    EXPECT_EQ(want->variance, got->variance);
    EXPECT_EQ(want->n, got->n);
    // ...and identical estimates after both ingest the same future stream
    // (the running doubles must restore bit-exact, not re-derived).
    Rng future_a(7), future_b(7);
    for (int i = 0; i < 50; ++i) {
      original.Add(RandomUnit(&future_a, 3));
      restored.Add(RandomUnit(&future_b, 3));
    }
    const auto want2 = original.Estimate(&weights);
    const auto got2 = restored.Estimate(&weights);
    ASSERT_TRUE(want2.ok() && got2.ok());
    EXPECT_EQ(want2->mu, got2->mu);
    EXPECT_EQ(want2->variance, got2->variance);
  }
}

TEST(SnapshotTest, AccumulatorRejectsKindMismatch) {
  EstimatorAccumulator srs(EstimatorKind::kSrs);
  ByteWriter w;
  srs.SaveState(&w);
  EstimatorAccumulator cluster(EstimatorKind::kCluster);
  ByteReader r(w.span());
  EXPECT_FALSE(cluster.LoadState(&r).ok());
}

TEST(SnapshotTest, AnnotatedSampleRoundTripsTotalsHistoryAndDistinctSets) {
  for (const bool retain : {true, false}) {
    Rng rng(retain ? 5u : 6u);
    AnnotatedSample original;
    original.set_retain_units(retain);
    for (int i = 0; i < 300; ++i) {
      const AnnotatedUnit unit = RandomUnit(&rng, 2);
      for (uint32_t d = 0; d < unit.drawn; ++d) {
        original.MarkAnnotated(TripleRef{unit.cluster, d});
      }
      original.Add(unit);
    }
    ByteWriter w;
    original.SaveState(&w);
    AnnotatedSample restored;
    ByteReader r(w.span());
    ASSERT_TRUE(restored.LoadState(&r).ok());
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(restored.retain_units(), retain);
    EXPECT_EQ(restored.num_units(), original.num_units());
    EXPECT_EQ(restored.num_triples(), original.num_triples());
    EXPECT_EQ(restored.num_correct(), original.num_correct());
    EXPECT_EQ(restored.num_distinct_entities(),
              original.num_distinct_entities());
    EXPECT_EQ(restored.num_distinct_triples(),
              original.num_distinct_triples());
    ASSERT_EQ(restored.units().size(), original.units().size());
    for (size_t i = 0; i < original.units().size(); ++i) {
      EXPECT_EQ(restored.units()[i].cluster, original.units()[i].cluster);
      EXPECT_EQ(restored.units()[i].correct, original.units()[i].correct);
    }
    // Re-marking a known triple is recognized as a duplicate after restore.
    Rng probe(retain ? 5u : 6u);
    const AnnotatedUnit first = RandomUnit(&probe, 2);
    EXPECT_FALSE(restored.MarkAnnotated(TripleRef{first.cluster, 0}));
  }
}

TEST(SnapshotTest, LeanSampleResumesMidStreamByteIdentically) {
  // With retention off the sample is totals plus the two distinct sets. A
  // Save/LoadState round trip mid-stream must restore both, and the
  // restored sample must then track the original through the same future
  // units: same totals, same distinct sets, same snapshot bytes.
  AnnotatedSample original;
  original.set_retain_units(false);
  const auto feed = [](AnnotatedSample* sample, Rng* rng, int units) {
    for (int i = 0; i < units; ++i) {
      const AnnotatedUnit unit = RandomUnit(rng, 2);
      for (uint32_t d = 0; d < unit.drawn; ++d) {
        sample->MarkAnnotated(TripleRef{unit.cluster, d});
      }
      sample->Add(unit);
    }
  };
  Rng stream(4);
  feed(&original, &stream, 500);

  ByteWriter w;
  original.SaveState(&w);
  AnnotatedSample restored;
  ByteReader r(w.span());
  ASSERT_TRUE(restored.LoadState(&r).ok());
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(restored.retain_units());
  EXPECT_TRUE(restored.units().empty());

  Rng future_a(9), future_b(9);
  feed(&original, &future_a, 200);
  feed(&restored, &future_b, 200);
  EXPECT_EQ(restored.num_units(), original.num_units());
  EXPECT_EQ(restored.num_triples(), original.num_triples());
  EXPECT_EQ(restored.num_correct(), original.num_correct());
  EXPECT_EQ(restored.num_distinct_entities(),
            original.num_distinct_entities());
  EXPECT_EQ(restored.num_distinct_triples(), original.num_distinct_triples());
  EXPECT_TRUE(restored.units().empty());
  ByteWriter want, got;
  original.SaveState(&want);
  restored.SaveState(&got);
  EXPECT_EQ(want.bytes(), got.bytes());
}

TEST(SnapshotTest, AhpdWarmStateRoundTripsEveryField) {
  AhpdWarmState original;
  original.Sync(3);
  original.priors[0] = Interval{0.71234567891234, 0.83456789123456};
  original.priors[2] = Interval{0.125, 0.5};

  ByteWriter w;
  SaveAhpdWarmState(original, &w);
  AhpdWarmState restored;
  ByteReader r(w.span());
  ASSERT_TRUE(LoadAhpdWarmState(&r, &restored).ok());
  EXPECT_TRUE(r.empty());
  ASSERT_EQ(restored.priors.size(), 3u);
  ASSERT_TRUE(restored.priors[0].has_value());
  EXPECT_EQ(restored.priors[0]->lower, 0.71234567891234);
  EXPECT_EQ(restored.priors[0]->upper, 0.83456789123456);
  EXPECT_FALSE(restored.priors[1].has_value());
  ASSERT_TRUE(restored.priors[2].has_value());
  EXPECT_EQ(restored.priors[2]->lower, 0.125);
  EXPECT_EQ(restored.priors[2]->upper, 0.5);
}

/// A varint no payload of a few bytes can back with elements: 2^40.
void PutHugeCount(ByteWriter* w) { w->PutVarint(uint64_t{1} << 40); }

TEST(SnapshotTest, AhpdWarmStateRejectsAHugeCount) {
  // Six bytes claiming 2^40 carried priors must fail the bounded count
  // read, not size a vector from it.
  ByteWriter w;
  PutHugeCount(&w);
  AhpdWarmState state;
  ByteReader r(w.span());
  EXPECT_FALSE(LoadAhpdWarmState(&r, &state).ok());
}

TEST(SnapshotTest, AnnotatedSampleRejectsAHugeHistoryCount) {
  ByteWriter w;
  w.PutBool(true);  // retain_units
  w.PutVarint(1);   // num_units
  w.PutVarint(1);   // num_triples
  w.PutVarint(1);   // num_correct
  PutHugeCount(&w);
  AnnotatedSample sample;
  ByteReader r(w.span());
  EXPECT_FALSE(sample.LoadState(&r).ok());
}

/// Draws `steps` batches, saves the sampler, restores into a fresh clone,
/// and verifies the next `steps` batches agree draw for draw under
/// identical Rng streams.
void CheckSamplerRoundTrip(const KgView& kg, Sampler& original,
                           uint64_t seed, int steps) {
  Rng rng(seed);
  SampleBatch batch;
  original.Reset();
  for (int i = 0; i < steps; ++i) {
    ASSERT_TRUE(original.NextBatch(&rng, &batch).ok());
  }
  ByteWriter w;
  original.SaveState(&w);
  ByteWriter rng_state;
  rng.SaveState(&rng_state);

  std::unique_ptr<Sampler> restored = original.Clone();
  ASSERT_NE(restored, nullptr);
  ByteReader r(w.span());
  restored->Reset();
  ASSERT_TRUE(restored->LoadState(&r).ok());
  EXPECT_TRUE(r.empty());
  Rng restored_rng(0);
  ByteReader rng_reader(rng_state.span());
  ASSERT_TRUE(restored_rng.LoadState(&rng_reader).ok());

  SampleBatch batch_a, batch_b;
  for (int i = 0; i < steps; ++i) {
    ASSERT_TRUE(original.NextBatch(&rng, &batch_a).ok());
    ASSERT_TRUE(restored->NextBatch(&restored_rng, &batch_b).ok());
    ASSERT_EQ(batch_a.size(), batch_b.size());
    for (size_t u = 0; u < batch_a.size(); ++u) {
      EXPECT_EQ(batch_a.unit(u).cluster, batch_b.unit(u).cluster);
      EXPECT_EQ(batch_a.unit(u).stratum, batch_b.unit(u).stratum);
      const auto offs_a = batch_a.offsets(u);
      const auto offs_b = batch_b.offsets(u);
      ASSERT_EQ(offs_a.size(), offs_b.size());
      for (size_t k = 0; k < offs_a.size(); ++k) {
        EXPECT_EQ(offs_a[k], offs_b[k]);
      }
    }
  }
}

TEST(SnapshotTest, SrsWithoutReplacementStateRoundTrips) {
  const auto kg = TestKg();
  SrsSampler sampler(kg, SrsConfig{.batch_size = 30,
                                   .without_replacement = true});
  CheckSamplerRoundTrip(kg, sampler, 11, 6);
}

TEST(SnapshotTest, SystematicSweepPositionRoundTrips) {
  const auto kg = TestKg();
  SystematicSampler sampler(kg, SystematicConfig{.batch_size = 25,
                                                 .skip = 13});
  CheckSamplerRoundTrip(kg, sampler, 12, 6);
}

TEST(SnapshotTest, StratifiedAllocationCarryRoundTrips) {
  const auto kg = TestKg();
  StratifiedSampler sampler(kg, StratifiedConfig{.batch_size = 17});
  CheckSamplerRoundTrip(kg, sampler, 13, 6);
}

TEST(SnapshotTest, StatelessClusterSamplersRoundTripTrivially) {
  const auto kg = TestKg();
  TwcsSampler twcs(kg, TwcsConfig{});
  CheckSamplerRoundTrip(kg, twcs, 14, 4);
  WcsSampler wcs(kg, ClusterConfig{});
  CheckSamplerRoundTrip(kg, wcs, 15, 4);
  RcsSampler rcs(kg, ClusterConfig{});
  CheckSamplerRoundTrip(kg, rcs, 16, 4);
}

TEST(SnapshotTest, SessionSnapshotRejectsOtherFormatVersions) {
  // Every version bump shifted fields mid-payload; a payload stamped with
  // another version must fail the explicit version gate up front, not
  // misparse with every later field shifted.
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Step().ok());
  ByteWriter w;
  session.SaveState(&w);
  std::vector<uint8_t> bytes(w.span().begin(), w.span().end());
  ASSERT_FALSE(bytes.empty());
  // v1 is the pre-reservoir format; v2 still carried the HPD solve cache
  // and BFGS Hessians in the warm state; v3 still carried the reservoir.
  for (const uint8_t old_version : {1, 2, 3}) {
    bytes[0] = old_version;
    EvaluationSession same(sampler, annotator, config, 42);
    ByteReader r({bytes.data(), bytes.size()});
    const Status status = same.LoadState(&r);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("incompatible"), std::string::npos)
        << status.ToString();
  }
}

TEST(SnapshotTest, SessionSnapshotRejectsHostileResultFields) {
  // The snapshot ends with the stop reason byte, the trace count, the done
  // flag and the MoE. With the trace off the count is one zero byte, so
  // both fields sit at fixed offsets from the end.
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  config.record_trace = false;
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Step().ok());
  ByteWriter w;
  session.SaveState(&w);
  const std::vector<uint8_t> bytes(w.span().begin(), w.span().end());
  const size_t count_at = bytes.size() - 10;
  ASSERT_EQ(bytes[count_at], 0u);

  const auto load = [&](const std::vector<uint8_t>& payload) {
    EvaluationSession restored(sampler, annotator, config, 42);
    ByteReader r({payload.data(), payload.size()});
    return restored.LoadState(&r);
  };
  ASSERT_TRUE(load(bytes).ok());

  // A trace count of 2^40 must fail the bounded count read, not reserve.
  ByteWriter huge;
  PutHugeCount(&huge);
  std::vector<uint8_t> hostile(bytes.begin(), bytes.begin() + count_at);
  hostile.insert(hostile.end(), huge.bytes().begin(), huge.bytes().end());
  hostile.insert(hostile.end(), bytes.begin() + count_at + 1, bytes.end());
  EXPECT_FALSE(load(hostile).ok());

  // A stop reason past the enum is rejected, not cast.
  std::vector<uint8_t> bad_reason = bytes;
  bad_reason[count_at - 1] = 200;
  EXPECT_FALSE(load(bad_reason).ok());
}

TEST(SnapshotTest, SessionSnapshotRejectsFingerprintMismatch) {
  const auto kg = TestKg();
  OracleAnnotator annotator;
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationConfig config;
  EvaluationSession session(sampler, annotator, config, 42);
  ASSERT_TRUE(session.Step().ok());
  ByteWriter w;
  session.SaveState(&w);

  // Different seed.
  {
    EvaluationSession other(sampler, annotator, config, 43);
    ByteReader r(w.span());
    EXPECT_FALSE(other.LoadState(&r).ok());
  }
  // Different interval method.
  {
    EvaluationConfig wald = config;
    wald.method = IntervalMethod::kWald;
    EvaluationSession other(sampler, annotator, wald, 42);
    ByteReader r(w.span());
    EXPECT_FALSE(other.LoadState(&r).ok());
  }
  // Different design.
  {
    TwcsSampler twcs(kg, TwcsConfig{});
    EvaluationSession other(twcs, annotator, config, 42);
    ByteReader r(w.span());
    EXPECT_FALSE(other.LoadState(&r).ok());
  }
  // Same prior *count* but different prior parameters: a snapshot solved
  // under one prior set must not restore under another.
  {
    EvaluationConfig other_priors = config;
    ASSERT_FALSE(other_priors.priors.empty());
    other_priors.priors[0].a += 1.0;
    EvaluationSession other(sampler, annotator, other_priors, 42);
    ByteReader r(w.span());
    EXPECT_FALSE(other.LoadState(&r).ok());
  }
  // Matching everything: accepted.
  {
    EvaluationSession same(sampler, annotator, config, 42);
    ByteReader r(w.span());
    EXPECT_TRUE(same.LoadState(&r).ok());
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(same.iterations(), session.iterations());
  }
}

}  // namespace
}  // namespace kgacc
