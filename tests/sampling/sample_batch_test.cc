// Round-trip tests for the flat (structure-of-arrays) SampleBatch: every
// sampler must emit well-formed spans over the shared offset buffer, the
// same seed must reproduce the same draws through fresh instances, clones,
// and reused batch objects, and the appending second-stage draw must match
// the allocating reference stream for stream.

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/sample.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKg MakeKg(uint64_t clusters = 400) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = clusters;
  cfg.mean_cluster_size = 4.0;
  cfg.accuracy = 0.85;
  cfg.seed = 33;
  return *SyntheticKg::Create(cfg);
}

/// Every design under test, bound to `kg`.
std::vector<std::unique_ptr<Sampler>> AllSamplers(const KgView& kg) {
  std::vector<std::unique_ptr<Sampler>> out;
  out.push_back(std::make_unique<SrsSampler>(kg, SrsConfig{.batch_size = 25}));
  out.push_back(std::make_unique<SrsSampler>(
      kg, SrsConfig{.batch_size = 25, .without_replacement = true}));
  out.push_back(std::make_unique<SystematicSampler>(
      kg, SystematicConfig{.batch_size = 25}));
  out.push_back(std::make_unique<StratifiedSampler>(
      kg, StratifiedConfig{.batch_size = 25}));
  out.push_back(std::make_unique<TwcsSampler>(
      kg, TwcsConfig{.batch_clusters = 9, .second_stage_size = 3}));
  out.push_back(std::make_unique<WcsSampler>(
      kg, ClusterConfig{.batch_clusters = 6}));
  out.push_back(std::make_unique<RcsSampler>(
      kg, ClusterConfig{.batch_clusters = 6}));
  return out;
}

/// The SoA structural invariant: unit spans tile the shared offset buffer
/// from its front — contiguous, in order, no gaps, no overlap.
void ExpectSpansTileBuffer(const SampleBatch& batch) {
  uint64_t expected_begin = 0;
  for (const SampledUnit& unit : batch.units()) {
    EXPECT_EQ(unit.offset_begin, expected_begin);
    EXPECT_GE(unit.offset_count, 1u);
    expected_begin += unit.offset_count;
  }
}

void ExpectSameBatch(const SampleBatch& a, const SampleBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.unit(i).cluster, b.unit(i).cluster);
    EXPECT_EQ(a.unit(i).cluster_population, b.unit(i).cluster_population);
    EXPECT_EQ(a.unit(i).stratum, b.unit(i).stratum);
    EXPECT_EQ(a.unit(i).offset_begin, b.unit(i).offset_begin);
    EXPECT_EQ(a.unit(i).offset_count, b.unit(i).offset_count);
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const std::span<const uint64_t> want = a.offsets(i);
    const std::span<const uint64_t> got = b.offsets(i);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "unit " << i;
  }
}

TEST(SampleBatchSoaTest, EverySamplerEmitsWellFormedSpans) {
  const auto kg = MakeKg();
  for (const auto& sampler : AllSamplers(kg)) {
    SCOPED_TRACE(sampler->name());
    Rng rng(7);
    SampleBatch batch;
    for (int b = 0; b < 5; ++b) {
      ASSERT_TRUE(sampler->NextBatch(&rng, &batch).ok());
      ASSERT_FALSE(batch.empty());
      ExpectSpansTileBuffer(batch);
      for (size_t i = 0; i < batch.size(); ++i) {
        const SampledUnit& unit = batch.unit(i);
        EXPECT_EQ(batch.offsets(i).size(), unit.offset_count);
        for (uint64_t offset : batch.offsets(i)) {
          EXPECT_LT(offset, kg.cluster_size(unit.cluster));
        }
      }
    }
  }
}

TEST(SampleBatchSoaTest, SameSeedSameDrawsThroughReusedAndFreshBatches) {
  // A reused batch object (the session hot path) must replay exactly what
  // fresh per-step batches produce: Clear() semantics may not leak state.
  const auto kg = MakeKg();
  for (const auto& sampler : AllSamplers(kg)) {
    SCOPED_TRACE(sampler->name());
    Rng rng_reused(11), rng_fresh(11);
    sampler->Reset();
    SampleBatch reused;
    std::vector<SampleBatch> fresh_batches;
    std::vector<SampleBatch> reused_batches;
    for (int b = 0; b < 4; ++b) {
      ASSERT_TRUE(sampler->NextBatch(&rng_reused, &reused).ok());
      reused_batches.push_back(reused);  // Copy of the reused object.
    }
    sampler->Reset();
    for (int b = 0; b < 4; ++b) {
      SampleBatch fresh;
      ASSERT_TRUE(sampler->NextBatch(&rng_fresh, &fresh).ok());
      fresh_batches.push_back(std::move(fresh));
    }
    for (int b = 0; b < 4; ++b) {
      SCOPED_TRACE(b);
      ExpectSameBatch(reused_batches[b], fresh_batches[b]);
    }
  }
}

TEST(SampleBatchSoaTest, ClonesReplayThePrototypeStream) {
  const auto kg = MakeKg();
  for (const auto& sampler : AllSamplers(kg)) {
    SCOPED_TRACE(sampler->name());
    auto clone = sampler->Clone();
    ASSERT_NE(clone, nullptr);
    Rng rng_a(21), rng_b(21);
    sampler->Reset();
    SampleBatch a, b;
    for (int step = 0; step < 3; ++step) {
      ASSERT_TRUE(sampler->NextBatch(&rng_a, &a).ok());
      ASSERT_TRUE(clone->NextBatch(&rng_b, &b).ok());
      ExpectSameBatch(a, b);
    }
  }
}

TEST(SampleBatchSoaTest, AppendingFloydDrawMatchesReference) {
  // SampleWithoutReplacementAppend must consume the identical Rng stream —
  // and land the identical draw — as Floyd's algorithm spelled out over a
  // std::set, regardless of what already sits in the output buffer.
  for (const uint64_t n : {5ull, 40ull, 1000ull}) {
    for (const uint64_t k : {1ull, 3ull, 5ull}) {
      Rng rng_ref(n * 100 + k), rng_app(n * 100 + k);
      std::vector<uint64_t> reference;
      std::set<uint64_t> chosen;
      for (uint64_t j = n - k; j < n; ++j) {
        const uint64_t t = rng_ref.UniformInt(j + 1);
        const uint64_t pick = chosen.count(t) == 0 ? t : j;
        chosen.insert(pick);
        reference.push_back(pick);
      }
      std::vector<uint64_t> appended = {777, 888};  // Pre-existing tail.
      FlatSet64 scratch;
      SampleWithoutReplacementAppend(n, k, &rng_app, &appended, &scratch);
      ASSERT_EQ(appended.size(), 2 + reference.size());
      EXPECT_EQ(appended[0], 777u);
      EXPECT_EQ(appended[1], 888u);
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(appended[2 + i], reference[i]) << n << " " << k;
      }
      // Streams advanced identically.
      EXPECT_EQ(rng_ref.Next(), rng_app.Next());
    }
  }
}

TEST(SampleBatchSoaTest, SecondStageAppendKeepsTheTail) {
  // Appending behind a pre-existing element lands the same draw, from the
  // same Rng stream, as appending into an empty buffer.
  for (const int m : {0, 2, 3, 10}) {
    Rng rng_empty(400 + m), rng_append(400 + m);
    std::vector<uint64_t> fresh;
    FlatSet64 scratch_empty, scratch_append;
    internal::DrawSecondStageAppend(7, m, &rng_empty, &fresh, &scratch_empty);
    std::vector<uint64_t> appended = {42};
    internal::DrawSecondStageAppend(7, m, &rng_append, &appended,
                                    &scratch_append);
    ASSERT_EQ(appended.size(), 1 + fresh.size());
    EXPECT_EQ(appended[0], 42u);
    for (size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(appended[1 + i], fresh[i]) << "m=" << m;
    }
    EXPECT_EQ(rng_empty.Next(), rng_append.Next());
  }
}

TEST(SampleBatchSoaTest, ProducerApiSealsSpans) {
  SampleBatch batch;
  batch.AddSingleton(3, 9, 1, 4);
  batch.OpenUnit(5, 6, 0);
  batch.mutable_offset_buffer()->push_back(2);
  batch.mutable_offset_buffer()->push_back(0);
  batch.CloseUnit();
  batch.OpenUnit(8, 4, 2);
  batch.AppendIota(4);
  batch.CloseUnit();

  ASSERT_EQ(batch.size(), 3u);
  ExpectSpansTileBuffer(batch);
  EXPECT_EQ(batch.unit(0).cluster, 3u);
  EXPECT_EQ(batch.unit(0).stratum, 1u);
  ASSERT_EQ(batch.offsets(0).size(), 1u);
  EXPECT_EQ(batch.offsets(0)[0], 4u);
  ASSERT_EQ(batch.offsets(1).size(), 2u);
  EXPECT_EQ(batch.offsets(1)[0], 2u);
  EXPECT_EQ(batch.offsets(1)[1], 0u);
  ASSERT_EQ(batch.offsets(2).size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(batch.offsets(2)[i], i);

  batch.Clear();
  EXPECT_TRUE(batch.empty());
  // The next unit's span starts at the buffer's front again.
  batch.AddSingleton(1, 2, 0, 1);
  EXPECT_EQ(batch.unit(0).offset_begin, 0u);
  ASSERT_EQ(batch.offsets(0).size(), 1u);
  EXPECT_EQ(batch.offsets(0)[0], 1u);
}

}  // namespace
}  // namespace kgacc
