// AnnotationStore semantics: labels are durable across reopen, immutable
// once stored, shared across audits (the StoredAnnotator answers stored
// triples without touching the inner oracle — asserted down to "a second
// same-task audit performs zero oracle calls"), and checkpoints interleave
// with the annotation records in the same log with latest-wins retention
// per audit id.

#include "kgacc/store/annotation_store.h"

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "kgacc/eval/session.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/util/codec.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/kgacc_store_test_" + name + "_" +
         std::to_string(::getpid());
}

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> b) { return b; }

TEST(AnnotationStoreTest, LabelsPersistAcrossReopen) {
  const std::string path = TempPath("persist");
  std::remove(path.c_str());
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->num_labeled(), 0u);
    ASSERT_TRUE((*store)->Append(7, 3, 1, true).ok());
    ASSERT_TRUE((*store)->Append(7, 3, 2, false).ok());
    ASSERT_TRUE((*store)->Append(7, 900, 0, true).ok());
    EXPECT_EQ((*store)->num_labeled(), 3u);
  }
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_labeled(), 3u);
  EXPECT_EQ((*store)->stats().records_replayed, 3u);
  EXPECT_EQ((*store)->Lookup(3, 1), std::optional<bool>(true));
  EXPECT_EQ((*store)->Lookup(3, 2), std::optional<bool>(false));
  EXPECT_EQ((*store)->Lookup(900, 0), std::optional<bool>(true));
  EXPECT_EQ((*store)->Lookup(3, 3), std::nullopt);
  // Sequence numbers continue past the replayed records.
  EXPECT_EQ((*store)->next_seq(), 3u);
  std::remove(path.c_str());
}

TEST(AnnotationStoreTest, StoredLabelsAreImmutable) {
  const std::string path = TempPath("immutable");
  std::remove(path.c_str());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Append(1, 5, 5, true).ok());
  // Same label: idempotent no-op.
  EXPECT_TRUE((*store)->Append(2, 5, 5, true).ok());
  EXPECT_EQ((*store)->num_labeled(), 1u);
  // Conflicting label: rejected, stored value unchanged.
  const Status conflict = (*store)->Append(2, 5, 5, false);
  EXPECT_EQ(conflict.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*store)->Lookup(5, 5), std::optional<bool>(true));
  std::remove(path.c_str());
}

TEST(AnnotationStoreTest, RacingConflictingLabelsSurfaceTheConflict) {
  // Regression: two writers racing the same *novel* key with opposite
  // labels can both pass the immutability pre-check. Both frames reach the
  // log and the first apply wins — the loser must then get the same
  // FailedPrecondition a serial caller gets; an OK would certify a label
  // that replay contradicts.
  const std::string path = TempPath("conflict_race");
  std::remove(path.c_str());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  constexpr uint64_t kKeys = 512;
  std::vector<Status> as_true(kKeys), as_false(kKeys);
  std::thread t1([&] {
    for (uint64_t k = 0; k < kKeys; ++k) {
      as_true[k] = (*store)->Append(/*audit_id=*/1, k, 1, true);
    }
  });
  std::thread t2([&] {
    for (uint64_t k = 0; k < kKeys; ++k) {
      as_false[k] = (*store)->Append(/*audit_id=*/2, k, 1, false);
    }
  });
  t1.join();
  t2.join();
  for (uint64_t k = 0; k < kKeys; ++k) {
    // Exactly one side owns the stored label; the other saw the conflict
    // (whether its pre-check or its post-log apply detected it).
    ASSERT_NE(as_true[k].ok(), as_false[k].ok()) << "key " << k;
    EXPECT_EQ(as_true[k].ok() ? as_false[k].code() : as_true[k].code(),
              StatusCode::kFailedPrecondition)
        << "key " << k;
    EXPECT_EQ((*store)->Lookup(k, 1), std::optional<bool>(as_true[k].ok()))
        << "key " << k;
  }
  // Replay agrees with what the callers were told.
  store->reset();
  auto reopened = AnnotationStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  for (uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ((*reopened)->Lookup(k, 1),
              std::optional<bool>(as_true[k].ok()))
        << "key " << k;
  }
  std::remove(path.c_str());
}

TEST(AnnotationStoreTest, CheckpointsAreLatestWinsPerAuditId) {
  const std::string path = TempPath("checkpoints");
  std::remove(path.c_str());
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    const auto v1 = Bytes({1, 1});
    const auto v2 = Bytes({2, 2, 2});
    const auto other = Bytes({9});
    ASSERT_TRUE((*store)->AppendCheckpoint(42, {v1.data(), v1.size()}).ok());
    ASSERT_TRUE((*store)->Append(42, 0, 1, true).ok());
    ASSERT_TRUE(
        (*store)->AppendCheckpoint(77, {other.data(), other.size()}).ok());
    ASSERT_TRUE((*store)->AppendCheckpoint(42, {v2.data(), v2.size()}).ok());
  }
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->LatestCheckpoint(42).has_value());
  EXPECT_EQ(*(*store)->LatestCheckpoint(42), Bytes({2, 2, 2}));
  ASSERT_TRUE((*store)->LatestCheckpoint(77).has_value());
  EXPECT_EQ(*(*store)->LatestCheckpoint(77), Bytes({9}));
  EXPECT_FALSE((*store)->LatestCheckpoint(1).has_value());
  EXPECT_EQ((*store)->stats().checkpoints_replayed, 3u);
  std::remove(path.c_str());
}

TEST(AnnotationStoreTest, CorruptTailRecoversToLastConsistentCheckpoint) {
  const std::string path = TempPath("corrupt_tail");
  std::remove(path.c_str());
  size_t good_prefix = 0;
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    const auto v1 = Bytes({1});
    ASSERT_TRUE((*store)->Append(5, 1, 1, true).ok());
    ASSERT_TRUE((*store)->AppendCheckpoint(5, {v1.data(), v1.size()}).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    good_prefix = static_cast<size_t>(std::ftell(f));
    std::fclose(f);
    const auto v2 = Bytes({2});
    ASSERT_TRUE((*store)->Append(5, 2, 2, true).ok());
    ASSERT_TRUE((*store)->AppendCheckpoint(5, {v2.data(), v2.size()}).ok());
  }
  // Flip a bit in the first frame past the good prefix (the second
  // annotation record): the newer checkpoint behind it is severed, and
  // recovery lands on the older consistent one.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(good_prefix + 2), SEEK_SET);
    int byte = std::fgetc(f);
    std::fseek(f, static_cast<long>(good_prefix + 2), SEEK_SET);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->stats().recovery.truncated_tail);
  EXPECT_EQ((*store)->num_labeled(), 1u);  // Second record discarded.
  ASSERT_TRUE((*store)->LatestCheckpoint(5).has_value());
  EXPECT_EQ(*(*store)->LatestCheckpoint(5), Bytes({1}));
  std::remove(path.c_str());
}

TEST(AnnotationStoreTest, StoredAnnotatorCountsHitsAndOracleCalls) {
  const std::string path = TempPath("counters");
  std::remove(path.c_str());
  SyntheticKgConfig cfg;
  cfg.num_clusters = 50;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.8;
  cfg.seed = 3;
  const auto kg = *SyntheticKg::Create(cfg);
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  OracleAnnotator oracle;
  StoredAnnotator first(&oracle, store->get(), 1);
  // First pass over some triples: all misses, all appended.
  uint64_t expected = 0;
  for (uint64_t cluster = 0; cluster < 10; ++cluster) {
    const uint64_t size = kg.cluster_size(cluster);
    for (uint64_t offset = 0; offset < size; ++offset) {
      first.Annotate(kg, TripleRef{cluster, offset}, nullptr);
      ++expected;
    }
  }
  EXPECT_EQ(first.oracle_calls(), expected);
  EXPECT_EQ(first.store_hits(), 0u);
  EXPECT_TRUE(first.status().ok());
  EXPECT_EQ((*store)->num_labeled(), expected);
  // Second pass (a different audit): pure hits, zero oracle calls, and the
  // answers match the ground truth exactly.
  StoredAnnotator second(&oracle, store->get(), 2);
  for (uint64_t cluster = 0; cluster < 10; ++cluster) {
    const uint64_t size = kg.cluster_size(cluster);
    for (uint64_t offset = 0; offset < size; ++offset) {
      const TripleRef ref{cluster, offset};
      EXPECT_EQ(second.Annotate(kg, ref, nullptr),
                oracle.Annotate(kg, ref, nullptr));
    }
  }
  EXPECT_EQ(second.oracle_calls(), 0u);
  EXPECT_EQ(second.store_hits(), expected);
  std::remove(path.c_str());
}

TEST(AnnotationStoreTest, SecondAuditOverSameKgPaysZeroOracleCalls) {
  // The headline reuse property: audit once against a store, then run the
  // same audit task again (fresh process simulated by reopening) — every
  // triple the second audit draws is already labeled, so the oracle is
  // never consulted.
  const std::string path = TempPath("reuse");
  std::remove(path.c_str());
  SyntheticKgConfig cfg;
  cfg.num_clusters = 400;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.85;
  cfg.seed = 9;
  const auto kg = *SyntheticKg::Create(cfg);
  EvaluationConfig config;  // aHPD defaults.
  EvaluationResult first_result;
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    OracleAnnotator oracle;
    StoredAnnotator annotator(&oracle, store->get(), 1);
    SrsSampler sampler(kg, SrsConfig{});
    EvaluationSession session(sampler, annotator, config, 1234);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok());
    first_result = *result;
    EXPECT_GT(annotator.oracle_calls(), 0u);
    EXPECT_TRUE(annotator.status().ok());
  }
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  OracleAnnotator oracle;
  StoredAnnotator annotator(&oracle, store->get(), 2);
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationSession session(sampler, annotator, config, 1234);
  const auto result = session.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(annotator.oracle_calls(), 0u);
  EXPECT_EQ(annotator.store_hits(), result->annotated_triples);
  // Identical labels, identical seed: identical audit.
  EXPECT_EQ(result->mu, first_result.mu);
  EXPECT_EQ(result->annotated_triples, first_result.annotated_triples);
  EXPECT_EQ(result->interval.lower, first_result.interval.lower);
  EXPECT_EQ(result->interval.upper, first_result.interval.upper);
  std::remove(path.c_str());
}

TEST(AnnotationStoreTest, BurnRngDrawsConsumesExactlyWhatAnnotateWould) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 20;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.8;
  cfg.seed = 5;
  const auto kg = *SyntheticKg::Create(cfg);
  NoisyAnnotator noisy(0.2);
  MajorityVoteAnnotator vote(3, 0.2);
  OracleAnnotator oracle;
  for (Annotator* annotator :
       std::vector<Annotator*>{&noisy, &vote, &oracle}) {
    // Annotate on one stream, BurnRngDraws on a same-seeded twin: both must
    // leave their Rng in the identical state — the parity the store-hit
    // burning rests on.
    Rng judged(99), burned(99);
    annotator->Annotate(kg, TripleRef{0, 0}, &judged);
    annotator->BurnRngDraws(&burned);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(judged.Next(), burned.Next());
  }
}

TEST(AnnotationStoreTest, StoreBackedNoisyRunsEqualTheBareRunBitwise) {
  // A session feeds one Rng to both its sampler and its annotator, so with
  // a stochastic annotator a store hit that skipped the annotator's draws
  // would shift every later draw — including which triples get sampled
  // next. Every hit burns those draws, so the all-hits rerun (the shape of
  // a replayed resume) must follow the bare run bit for bit.
  const std::string path = TempPath("burn_rng");
  std::remove(path.c_str());
  SyntheticKgConfig cfg;
  cfg.num_clusters = 400;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.85;
  cfg.seed = 13;
  const auto kg = *SyntheticKg::Create(cfg);
  EvaluationConfig config;
  const uint64_t seed = 4321;

  NoisyAnnotator bare(0.15);
  EvaluationResult bare_result;
  {
    SrsSampler sampler(kg, SrsConfig{.without_replacement = true});
    EvaluationSession session(sampler, bare, config, seed);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok());
    bare_result = *result;
  }

  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  {
    // Populate: all misses delegate to the inner annotator on the live Rng,
    // so the populating run already matches the bare run exactly.
    NoisyAnnotator inner(0.15);
    StoredAnnotator populating(&inner, store->get(), 1);
    SrsSampler sampler(kg, SrsConfig{.without_replacement = true});
    EvaluationSession session(sampler, populating, config, seed);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(populating.status().ok());
    EXPECT_EQ(populating.store_hits(), 0u);
    EXPECT_EQ(result->mu, bare_result.mu);
    EXPECT_EQ(result->annotated_triples, bare_result.annotated_triples);
  }
  {
    // Rerun against the populated store: pure hits, zero inner calls, and
    // a bitwise-identical audit.
    NoisyAnnotator inner(0.15);
    StoredAnnotator burning(&inner, store->get(), 2);
    SrsSampler sampler(kg, SrsConfig{.without_replacement = true});
    EvaluationSession session(sampler, burning, config, seed);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(burning.oracle_calls(), 0u);
    EXPECT_EQ(burning.store_hits(), result->annotated_triples);
    EXPECT_EQ(result->mu, bare_result.mu);
    EXPECT_EQ(result->annotated_triples, bare_result.annotated_triples);
    EXPECT_EQ(result->interval.lower, bare_result.interval.lower);
    EXPECT_EQ(result->interval.upper, bare_result.interval.upper);
    EXPECT_EQ(result->iterations, bare_result.iterations);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
