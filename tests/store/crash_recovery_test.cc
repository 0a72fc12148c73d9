// The integration acceptance test for durable audits: a *real* process
// running an audit is killed with SIGKILL mid-stream — no destructors, no
// flush beyond the store's own per-frame discipline — and a second process
// (the test parent, which never touched the store before) resumes it and
// must produce the byte-identical report of an uninterrupted run.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>

#include "kgacc/eval/report.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/util/failpoint.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

constexpr uint64_t kSeed = 77;

SyntheticKg TestKg() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 500;
  cfg.mean_cluster_size = 3.5;
  cfg.accuracy = 0.84;
  cfg.seed = 19;
  return *SyntheticKg::Create(cfg);
}

EvaluationConfig TestConfig() {
  EvaluationConfig config;  // aHPD defaults.
  config.record_trace = true;
  return config;
}

/// Child body: run the durable audit with `audit.kill` armed to fire on
/// step `crash_after`, *between* the step and its checkpoint — the worst
/// crash point, where the tail step's labels are on file but its
/// checkpoint is not. Plain exits only: the child must never unwind into
/// gtest.
[[noreturn]] void RunChildAndCrash(const std::string& store_path,
                                   int crash_after) {
  const auto kg = TestKg();
  auto store = AnnotationStore::Open(store_path);
  if (!store.ok()) _exit(10);
  if (!FailpointRegistry::Instance()
           .ArmOne("audit.kill", "every:" + std::to_string(crash_after))
           .ok()) {
    _exit(11);
  }
  OracleAnnotator oracle;
  TwcsSampler sampler(kg, TwcsConfig{});
  DurableAudit audit(sampler, &oracle, store->get(), kSeed, TestConfig(),
                     kSeed);
  if (!audit.Run().ok()) _exit(12);
  _exit(13);  // Finished before the crash point: test misconfigured.
}

TEST(CrashRecoveryTest, SigkilledAuditResumesToByteIdenticalReport) {
  const auto kg = TestKg();
  const EvaluationConfig config = TestConfig();
  const std::string path = testing::TempDir() + "/kgacc_crash_test_" +
                           std::to_string(::getpid());
  std::remove(path.c_str());

  // Uninterrupted reference, no store.
  EvaluationResult reference;
  {
    OracleAnnotator oracle;
    TwcsSampler sampler(kg, TwcsConfig{});
    EvaluationSession session(sampler, oracle, config, kSeed);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok());
    reference = *result;
    ASSERT_GE(reference.iterations, 4);
  }

  // Kill a real audit process mid-stream.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    RunChildAndCrash(path, reference.iterations / 2);
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status))
      << "child exited with code "
      << (WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1)
      << " instead of dying by signal";
  ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

  // Resume in this (fresh) process and finish.
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->stats().recovery.truncated_tail)
      << "per-frame flushing should leave no torn tail on SIGKILL";
  OracleAnnotator oracle;
  TwcsSampler sampler(kg, TwcsConfig{});
  DurableAudit audit(sampler, &oracle, store->get(), kSeed, config, kSeed);
  ASSERT_TRUE(audit.checkpoints().CanResume());
  const auto result = audit.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(audit.annotator().status().ok());

  EXPECT_EQ(result->mu, reference.mu);
  EXPECT_EQ(result->interval.lower, reference.interval.lower);
  EXPECT_EQ(result->interval.upper, reference.interval.upper);
  EXPECT_EQ(result->annotated_triples, reference.annotated_triples);
  EXPECT_EQ(result->distinct_triples, reference.distinct_triples);
  EXPECT_EQ(result->distinct_entities, reference.distinct_entities);
  EXPECT_EQ(result->iterations, reference.iterations);
  EXPECT_EQ(result->stop_reason, reference.stop_reason);
  ReportContext context;
  context.dataset_name = "crash-test";
  context.design_name = "TWCS";
  EXPECT_EQ(RenderJsonReport(context, config, *result),
            RenderJsonReport(context, config, reference));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
