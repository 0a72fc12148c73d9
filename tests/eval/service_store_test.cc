// Store-backed EvaluationService jobs: many jobs in one batch share a
// single AnnotationStore through the group-commit queue. The contract under
// test is the ISSUE acceptance criterion — the durable label set is
// byte-identical regardless of worker-thread count or commit batching — plus
// the service-level accounting (store hits / oracle calls / commit stats
// surface in outcomes and batch stats) and the repay property: a second
// batch over a populated store performs zero oracle calls.

#include "kgacc/eval/service.h"

#include <unistd.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/util/failpoint.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/kgacc_service_store_test_" + name + "_" +
         std::to_string(::getpid());
}

SyntheticKg MakeKg() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 600;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = 0.84;
  cfg.seed = 19;
  return *SyntheticKg::Create(cfg);
}

std::map<std::pair<uint64_t, uint64_t>, bool> AllLabels(
    const AnnotationStore& store, const SyntheticKg& kg) {
  std::map<std::pair<uint64_t, uint64_t>, bool> labels;
  for (uint64_t cluster = 0; cluster < kg.num_clusters(); ++cluster) {
    for (uint64_t offset = 0; offset < kg.cluster_size(cluster); ++offset) {
      const auto label = store.Lookup(cluster, offset);
      if (label.has_value()) labels[{cluster, offset}] = *label;
    }
  }
  return labels;
}

/// Eight jobs over one KG, all pointed at the same store with distinct
/// audit ids — the multi-tenant workload the group-commit queue exists for.
std::vector<EvaluationJob> StoreJobs(const Sampler& srs, Annotator& annotator,
                                     AnnotationStore* store) {
  std::vector<EvaluationJob> jobs;
  for (uint64_t i = 0; i < 8; ++i) {
    EvaluationJob job;
    job.sampler = &srs;
    job.annotator = &annotator;
    job.seed = EvaluationService::DeriveJobSeed(909, i);
    job.label = "store-job-" + std::to_string(i);
    job.store = store;
    job.audit_id = i + 1;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(ServiceStoreTest, SharedStoreLabelSetIsIndependentOfThreadCount) {
  const auto kg = MakeKg();
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});

  std::map<std::pair<uint64_t, uint64_t>, bool> baseline_labels;
  uint64_t baseline_count = 0;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    const std::string path =
        TempPath(("threads_" + std::to_string(threads)).c_str());
    std::remove(path.c_str());
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    const auto jobs = StoreJobs(srs, annotator, store->get());

    EvaluationService service(
        EvaluationService::Options{.num_threads = threads});
    const auto batch = service.RunBatch(jobs);
    ASSERT_EQ(batch.outcomes.size(), jobs.size());
    uint64_t oracle_calls = 0;
    for (const auto& outcome : batch.outcomes) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      // Unarmed failpoints: durability never silently degrades.
      EXPECT_FALSE(outcome.degraded) << outcome.label;
      oracle_calls += outcome.store_oracle_calls;
    }
    // Every label that reached the oracle is on disk, and the service's
    // batch accounting saw the commit traffic.
    EXPECT_GT(oracle_calls, 0u);
    EXPECT_EQ(batch.stats.store_oracle_calls, oracle_calls);
    EXPECT_GT(batch.stats.store_commit_batches, 0u);
    EXPECT_GE(batch.stats.store_commit_frames,
              batch.stats.store_commit_batches);

    // The criterion itself: reopen from disk (replay, not the in-memory
    // index) and compare the durable label set across thread counts.
    store->reset();
    auto reopened = AnnotationStore::Open(path);
    ASSERT_TRUE(reopened.ok());
    const auto labels = AllLabels(**reopened, kg);
    if (baseline_labels.empty()) {
      baseline_labels = labels;
      baseline_count = (*reopened)->num_labeled();
      ASSERT_GT(baseline_count, 0u);
    } else {
      EXPECT_EQ(labels, baseline_labels);
      EXPECT_EQ((*reopened)->num_labeled(), baseline_count);
    }
    std::remove(path.c_str());
  }
}

TEST(ServiceStoreTest, SecondBatchOverPopulatedStorePaysZeroOracleCalls) {
  const auto kg = MakeKg();
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  const std::string path = TempPath("repay");
  std::remove(path.c_str());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  const auto jobs = StoreJobs(srs, annotator, store->get());

  EvaluationService service(EvaluationService::Options{.num_threads = 2});
  const auto first = service.RunBatch(jobs);
  for (const auto& outcome : first.outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  ASSERT_GT(first.stats.store_oracle_calls, 0u);

  // The identical batch again: every annotation the jobs draw is already
  // on file, so the oracle is never consulted and per-job results match
  // the first run exactly (deterministic oracle, same seeds).
  const auto second = service.RunBatch(jobs);
  ASSERT_EQ(second.outcomes.size(), first.outcomes.size());
  uint64_t hits = 0;
  for (size_t i = 0; i < second.outcomes.size(); ++i) {
    const auto& outcome = second.outcomes[i];
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_EQ(outcome.store_oracle_calls, 0u);
    hits += outcome.store_hits;
    EXPECT_EQ(outcome.result.mu, first.outcomes[i].result.mu);
    EXPECT_EQ(outcome.result.annotated_triples,
              first.outcomes[i].result.annotated_triples);
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(second.stats.store_oracle_calls, 0u);
  EXPECT_EQ(second.stats.store_hits, hits);
  std::remove(path.c_str());
}

TEST(ServiceStoreTest, RefusedLabelFailsTheJobBeforeItsCheckpoint) {
  // Fail-fast job whose every label append is refused: the job must end
  // with the append error, and the checkpoint hook must never run on the
  // refused step — a snapshot would certify labels the log does not hold.
  const auto kg = MakeKg();
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  const std::string path = TempPath("refused");
  std::remove(path.c_str());
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  CheckpointManager manager(store->get(), 1);

  EvaluationJob job;
  job.sampler = &srs;
  job.annotator = &annotator;
  job.seed = 3;
  job.store = store->get();
  job.audit_id = 1;
  job.store_options.on_store_error = StoreErrorPolicy::kFail;
  job.on_step = [&manager](const EvaluationSession& session) {
    return manager.OnStep(session);
  };
  EvaluationService service(EvaluationService::Options{.num_threads = 1});
  {
    ScopedFailpoints armed("store.append=every:1");
    ASSERT_TRUE(armed.status().ok());
    const auto batch = service.RunBatch({job});
    ASSERT_EQ(batch.outcomes.size(), 1u);
    EXPECT_EQ(batch.outcomes[0].status.code(), StatusCode::kIoError)
        << batch.outcomes[0].status.ToString();
    EXPECT_EQ(batch.stats.failed, 1u);
  }
  EXPECT_FALSE(CheckpointManager(store->get(), 1).CanResume());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
