// Checkpoint/resume exactness, per design: an audit checkpointed after
// every step, abandoned mid-stream, and resumed from the store in a fresh
// set of objects (new store handle, new sampler, new annotator, new
// session — everything a fresh process would rebuild) must finish on a
// report byte-identical to the uninterrupted run. Covers SRS (with and
// without replacement), TWCS, WCS, RCS, SSRS, and systematic sampling,
// each under the full aHPD loop.

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "kgacc/eval/report.h"
#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/sampling/systematic.h"
#include "kgacc/store/checkpoint.h"
#include "kgacc/util/codec.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/kgacc_ckpt_test_" + name + "_" +
         std::to_string(::getpid());
}

SyntheticKg TestKg() {
  SyntheticKgConfig cfg;
  cfg.num_clusters = 500;
  cfg.mean_cluster_size = 3.5;
  cfg.accuracy = 0.82;
  cfg.seed = 31;
  return *SyntheticKg::Create(cfg);
}

EvaluationConfig TestConfig() {
  EvaluationConfig config;  // aHPD, alpha = eps = 0.05.
  config.record_trace = true;
  return config;
}

using SamplerFactory = std::function<std::unique_ptr<Sampler>(const KgView&)>;

/// Field-by-field bitwise comparison plus rendered-report equality — the
/// "byte-identical report" acceptance criterion, literally.
void ExpectIdenticalResults(const EvaluationResult& a,
                            const EvaluationResult& b,
                            const EvaluationConfig& config,
                            const char* design) {
  EXPECT_EQ(a.mu, b.mu) << design;
  EXPECT_EQ(a.interval.lower, b.interval.lower) << design;
  EXPECT_EQ(a.interval.upper, b.interval.upper) << design;
  EXPECT_EQ(a.annotated_triples, b.annotated_triples) << design;
  EXPECT_EQ(a.distinct_triples, b.distinct_triples) << design;
  EXPECT_EQ(a.distinct_entities, b.distinct_entities) << design;
  EXPECT_EQ(a.cost_seconds, b.cost_seconds) << design;
  EXPECT_EQ(a.iterations, b.iterations) << design;
  EXPECT_EQ(a.winning_prior, b.winning_prior) << design;
  EXPECT_EQ(a.deff, b.deff) << design;
  EXPECT_EQ(a.converged, b.converged) << design;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << design;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << design;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].n, b.trace[i].n) << design;
    EXPECT_EQ(a.trace[i].moe, b.trace[i].moe) << design;
    EXPECT_EQ(a.trace[i].mu, b.trace[i].mu) << design;
  }
  ReportContext context;
  context.dataset_name = "ckpt-test";
  context.design_name = design;
  EXPECT_EQ(RenderJsonReport(context, config, a),
            RenderJsonReport(context, config, b))
      << design;
  EXPECT_EQ(RenderTextReport(context, config, a),
            RenderTextReport(context, config, b))
      << design;
}

void CheckDesignResumesByteIdentical(const char* design,
                                     const SamplerFactory& make_sampler,
                                     uint64_t seed) {
  const auto kg = TestKg();
  const EvaluationConfig config = TestConfig();
  const std::string path = TempPath(design);
  std::remove(path.c_str());

  // Reference: the uninterrupted run, no store involved at all.
  EvaluationResult reference;
  {
    OracleAnnotator oracle;
    auto sampler = make_sampler(kg);
    EvaluationSession session(*sampler, oracle, config, seed);
    const auto result = session.Run();
    ASSERT_TRUE(result.ok()) << design;
    reference = *result;
    ASSERT_GE(reference.iterations, 2)
        << design << ": test needs a multi-step audit to interrupt";
  }

  // Durable run, killed mid-stream: checkpoint every step, abandon the
  // session after roughly half the reference iterations without any
  // cleanup call (the in-process stand-in for a crash — every appended
  // frame was already flushed).
  const int crash_after = reference.iterations / 2;
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok()) << design;
    OracleAnnotator oracle;
    StoredAnnotator annotator(&oracle, store->get(), seed);
    auto sampler = make_sampler(kg);
    EvaluationSession session(*sampler, annotator, config, seed);
    CheckpointManager manager(store->get(), seed, CheckpointOptions{});
    for (int i = 0; i < crash_after; ++i) {
      ASSERT_TRUE(session.Step().ok()) << design;
      ASSERT_TRUE(manager.OnStep(session).ok()) << design;
    }
    ASSERT_TRUE(annotator.status().ok()) << design;
  }

  // Fresh-process resume: every object rebuilt, state only from the store.
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok()) << design;
    OracleAnnotator oracle;
    auto sampler = make_sampler(kg);
    DurableAudit audit(*sampler, &oracle, store->get(), seed, config, seed);
    ASSERT_TRUE(audit.checkpoints().CanResume()) << design;
    const auto result = audit.Run();
    ASSERT_TRUE(result.ok()) << design;
    ASSERT_TRUE(audit.annotator().status().ok()) << design;
    EXPECT_EQ(audit.session().iterations(), reference.iterations) << design;
    ExpectIdenticalResults(reference, *result, config, design);
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, SrsResumesByteIdentical) {
  CheckDesignResumesByteIdentical(
      "SRS",
      [](const KgView& kg) {
        return std::make_unique<SrsSampler>(kg, SrsConfig{});
      },
      401);
}

TEST(CheckpointTest, SrsWithoutReplacementResumesByteIdentical) {
  CheckDesignResumesByteIdentical(
      "SRS-WOR",
      [](const KgView& kg) {
        return std::make_unique<SrsSampler>(
            kg, SrsConfig{.without_replacement = true});
      },
      402);
}

TEST(CheckpointTest, TwcsResumesByteIdentical) {
  CheckDesignResumesByteIdentical(
      "TWCS",
      [](const KgView& kg) {
        return std::make_unique<TwcsSampler>(kg, TwcsConfig{});
      },
      403);
}

TEST(CheckpointTest, WcsResumesByteIdentical) {
  CheckDesignResumesByteIdentical(
      "WCS",
      [](const KgView& kg) {
        return std::make_unique<WcsSampler>(kg, ClusterConfig{});
      },
      404);
}

TEST(CheckpointTest, RcsResumesByteIdentical) {
  CheckDesignResumesByteIdentical(
      "RCS",
      [](const KgView& kg) {
        return std::make_unique<RcsSampler>(kg, ClusterConfig{});
      },
      405);
}

TEST(CheckpointTest, StratifiedResumesByteIdentical) {
  CheckDesignResumesByteIdentical(
      "SSRS",
      [](const KgView& kg) {
        return std::make_unique<StratifiedSampler>(kg, StratifiedConfig{});
      },
      406);
}

TEST(CheckpointTest, SystematicResumesByteIdentical) {
  CheckDesignResumesByteIdentical(
      "SYS",
      [](const KgView& kg) {
        return std::make_unique<SystematicSampler>(kg, SystematicConfig{});
      },
      407);
}

TEST(CheckpointTest, ResumedStepsReplayLabelsFromTheStore) {
  // The economics of recovery: the labels paid between the last checkpoint
  // and the crash are already on file, so the resumed run's re-executed
  // steps consult the store, not the oracle. With checkpoints every 3
  // steps and a crash right before one, up to 2 steps replay — all hits.
  const auto kg = TestKg();
  const EvaluationConfig config = TestConfig();
  const std::string path = TempPath("replay_economics");
  std::remove(path.c_str());
  const uint64_t seed = 408;
  uint64_t labels_at_crash = 0;
  {
    auto store = AnnotationStore::Open(path);
    ASSERT_TRUE(store.ok());
    OracleAnnotator oracle;
    StoredAnnotator annotator(&oracle, store->get(), seed);
    SrsSampler sampler(kg, SrsConfig{});
    EvaluationSession session(sampler, annotator, config, seed);
    CheckpointManager manager(store->get(), seed,
                              CheckpointOptions{.every_steps = 3});
    for (int i = 0; i < 8; ++i) {  // Crash after step 8; checkpoint at 6.
      ASSERT_TRUE(session.Step().ok());
      ASSERT_TRUE(manager.OnStep(session).ok());
    }
    labels_at_crash = (*store)->num_labeled();
  }
  auto store = AnnotationStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_labeled(), labels_at_crash);
  OracleAnnotator oracle;
  StoredAnnotator annotator(&oracle, store->get(), seed);
  SrsSampler sampler(kg, SrsConfig{});
  EvaluationSession session(sampler, annotator, config, seed);
  CheckpointManager manager(store->get(), seed,
                            CheckpointOptions{.every_steps = 3});
  ASSERT_TRUE(manager.Resume(&session).ok());
  EXPECT_EQ(session.iterations(), 6);
  // Re-execute the two lost steps: pure store hits, zero oracle calls.
  ASSERT_TRUE(session.Step().ok());
  ASSERT_TRUE(session.Step().ok());
  EXPECT_EQ(annotator.oracle_calls(), 0u);
  EXPECT_GT(annotator.store_hits(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kgacc
