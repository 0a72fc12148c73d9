#include "kgacc/eval/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "kgacc/kg/synthetic.h"
#include "kgacc/sampling/cluster.h"
#include "kgacc/sampling/srs.h"
#include "kgacc/sampling/stratified.h"
#include "kgacc/stats/replication.h"
#include "kgacc/util/check.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

SyntheticKg MakeKg(double accuracy, uint64_t clusters = 2000,
                   uint64_t seed = 77) {
  SyntheticKgConfig cfg;
  cfg.num_clusters = clusters;
  cfg.mean_cluster_size = 3.0;
  cfg.accuracy = accuracy;
  cfg.seed = seed;
  return *SyntheticKg::Create(cfg);
}

void ExpectSameResult(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_EQ(a.annotated_triples, b.annotated_triples);
  EXPECT_EQ(a.distinct_triples, b.distinct_triples);
  EXPECT_EQ(a.distinct_entities, b.distinct_entities);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.winning_prior, b.winning_prior);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_DOUBLE_EQ(a.mu, b.mu);
  EXPECT_DOUBLE_EQ(a.interval.lower, b.interval.lower);
  EXPECT_DOUBLE_EQ(a.interval.upper, b.interval.upper);
  EXPECT_DOUBLE_EQ(a.cost_seconds, b.cost_seconds);
  EXPECT_DOUBLE_EQ(a.deff, b.deff);
}

/// A mixed workload: two designs x two methods x three seeds on one KG.
std::vector<EvaluationJob> MixedJobs(const Sampler& srs, const Sampler& twcs,
                                     Annotator& annotator) {
  std::vector<EvaluationJob> jobs;
  for (const IntervalMethod method :
       {IntervalMethod::kWilson, IntervalMethod::kAhpd}) {
    for (const Sampler* sampler : {&srs, &twcs}) {
      for (uint64_t i = 0; i < 3; ++i) {
        EvaluationJob job;
        job.sampler = sampler;
        job.annotator = &annotator;
        job.config.method = method;
        job.seed = EvaluationService::DeriveJobSeed(2025, jobs.size());
        job.label = std::string(sampler->name()) + "/" +
                    IntervalMethodName(method);
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

/// The serial reference every service execution shape must reproduce: each
/// job run through `RunEvaluation` on a fresh clone of its prototype.
std::vector<EvaluationResult> SerialReference(
    const std::vector<EvaluationJob>& jobs) {
  std::vector<EvaluationResult> results;
  for (const EvaluationJob& job : jobs) {
    auto clone = job.sampler->Clone();
    KGACC_CHECK(clone != nullptr);
    results.push_back(
        *RunEvaluation(*clone, *job.annotator, job.config, job.seed));
  }
  return results;
}

TEST(EvaluationServiceTest, ResultsAreIndependentOfThreadCount) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  TwcsSampler twcs(kg, TwcsConfig{});
  const auto jobs = MixedJobs(srs, twcs, annotator);

  EvaluationService one(EvaluationService::Options{.num_threads = 1});
  const auto baseline = one.RunBatch(jobs);
  ASSERT_EQ(baseline.outcomes.size(), jobs.size());
  for (const auto& outcome : baseline.outcomes) {
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }

  for (const int threads : {2, 8}) {
    EvaluationService service(
        EvaluationService::Options{.num_threads = threads});
    EXPECT_EQ(service.num_threads(), threads);
    const auto batch = service.RunBatch(jobs);
    ASSERT_EQ(batch.outcomes.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      SCOPED_TRACE(jobs[i].label + " @" + std::to_string(threads));
      ASSERT_TRUE(batch.outcomes[i].status.ok());
      ExpectSameResult(baseline.outcomes[i].result, batch.outcomes[i].result);
    }
  }
}

TEST(EvaluationServiceTest, MatchesDirectRunEvaluation) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  TwcsSampler twcs(kg, TwcsConfig{});
  const auto jobs = MixedJobs(srs, twcs, annotator);

  EvaluationService service(EvaluationService::Options{.num_threads = 4});
  const auto batch = service.RunBatch(jobs);
  // A fresh clone run serially through the wrapper must agree.
  const auto reference = SerialReference(jobs);
  for (size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    ASSERT_TRUE(batch.outcomes[i].status.ok());
    EXPECT_EQ(batch.outcomes[i].label, jobs[i].label);
    EXPECT_EQ(batch.outcomes[i].seed, jobs[i].seed);
    ExpectSameResult(reference[i], batch.outcomes[i].result);
  }
}

TEST(EvaluationServiceTest, PerJobFailuresDoNotPoisonTheBatch) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});

  std::vector<EvaluationJob> jobs(3);
  jobs[0].sampler = &srs;
  jobs[0].annotator = &annotator;
  jobs[0].seed = 1;
  jobs[1].sampler = &srs;
  jobs[1].annotator = &annotator;
  jobs[1].config.moe_threshold = 0.0;  // Invalid.
  jobs[2].sampler = nullptr;           // Invalid.
  jobs[2].annotator = &annotator;

  EvaluationService service(EvaluationService::Options{.num_threads = 2});
  const auto batch = service.RunBatch(jobs);
  EXPECT_TRUE(batch.outcomes[0].status.ok());
  EXPECT_TRUE(batch.outcomes[0].result.converged);
  EXPECT_FALSE(batch.outcomes[1].status.ok());
  EXPECT_FALSE(batch.outcomes[2].status.ok());
  EXPECT_EQ(batch.stats.jobs, 3u);
  EXPECT_EQ(batch.stats.failed, 2u);
  EXPECT_EQ(batch.stats.annotated_triples,
            batch.outcomes[0].result.annotated_triples);
}

TEST(EvaluationServiceTest, EmptyBatchIsFine) {
  EvaluationService service(EvaluationService::Options{.num_threads = 2});
  const auto batch = service.RunBatch({});
  EXPECT_TRUE(batch.outcomes.empty());
  EXPECT_EQ(batch.stats.jobs, 0u);
}

TEST(EvaluationServiceTest, ThroughputStatsAddUp) {
  const auto kg = MakeKg(0.9);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  TwcsSampler twcs(kg, TwcsConfig{});
  const auto jobs = MixedJobs(srs, twcs, annotator);

  EvaluationService service(EvaluationService::Options{.num_threads = 2});
  const auto batch = service.RunBatch(jobs);
  uint64_t total = 0;
  for (const auto& outcome : batch.outcomes) {
    ASSERT_TRUE(outcome.status.ok());
    total += outcome.result.annotated_triples;
  }
  EXPECT_EQ(batch.stats.annotated_triples, total);
  EXPECT_EQ(batch.stats.failed, 0u);
  EXPECT_GT(batch.stats.wall_seconds, 0.0);
  EXPECT_GT(batch.stats.audits_per_second, 0.0);
  EXPECT_GT(batch.stats.triples_per_second, 0.0);
}

TEST(EvaluationServiceTest, DeriveJobSeedSplitsIntoDistinctStreams) {
  std::set<uint64_t> seeds;
  for (uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(EvaluationService::DeriveJobSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // No collisions across indices.
  EXPECT_NE(EvaluationService::DeriveJobSeed(1, 0),
            EvaluationService::DeriveJobSeed(2, 0));
}

TEST(RunReplicationsParallelTest, MatchesSerialProtocolExactly) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  EvaluationConfig config;
  const int reps = 40;
  EvaluationService service(EvaluationService::Options{.num_threads = 4});

  {
    SrsSampler serial_sampler(kg, SrsConfig{});
    const auto serial =
        *RunReplications(serial_sampler, annotator, config, reps, 1000);
    SrsSampler parallel_sampler(kg, SrsConfig{});
    const auto parallel = *RunReplicationsParallel(
        service, parallel_sampler, annotator, config, reps, 1000);
    EXPECT_EQ(serial.triples, parallel.triples);
    EXPECT_EQ(serial.cost_hours, parallel.cost_hours);
    EXPECT_EQ(serial.mu, parallel.mu);
    EXPECT_EQ(serial.interval_widths, parallel.interval_widths);
    EXPECT_EQ(serial.unconverged, parallel.unconverged);
    EXPECT_EQ(serial.zero_width, parallel.zero_width);
    EXPECT_EQ(serial.prior_wins, parallel.prior_wins);
  }
  {
    TwcsSampler serial_sampler(kg, TwcsConfig{});
    const auto serial =
        *RunReplications(serial_sampler, annotator, config, reps, 2000);
    TwcsSampler parallel_sampler(kg, TwcsConfig{});
    const auto parallel = *RunReplicationsParallel(
        service, parallel_sampler, annotator, config, reps, 2000);
    EXPECT_EQ(serial.triples, parallel.triples);
    EXPECT_EQ(serial.mu, parallel.mu);
  }
  {
    // Stratified designs too: Reset() restores fresh carry state, so the
    // serial reuse protocol and per-job clones see identical streams.
    StratifiedSampler serial_sampler(kg, StratifiedConfig{});
    const auto serial =
        *RunReplications(serial_sampler, annotator, config, reps, 3000);
    StratifiedSampler parallel_sampler(kg, StratifiedConfig{});
    const auto parallel = *RunReplicationsParallel(
        service, parallel_sampler, annotator, config, reps, 3000);
    EXPECT_EQ(serial.triples, parallel.triples);
    EXPECT_EQ(serial.mu, parallel.mu);
  }
}

TEST(SamplerCloneTest, ClonesAreIndependentAndEquivalent) {
  const auto kg = MakeKg(0.85);
  SrsSampler srs(kg, SrsConfig{.without_replacement = true});
  TwcsSampler twcs(kg, TwcsConfig{});
  StratifiedSampler ssrs(kg, StratifiedConfig{});
  for (const Sampler* prototype :
       std::vector<const Sampler*>{&srs, &twcs, &ssrs}) {
    SCOPED_TRACE(prototype->name());
    auto a = prototype->Clone();
    auto b = prototype->Clone();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_STREQ(a->name(), prototype->name());
    // Same seed, independent instances: identical batches.
    Rng rng_a(5), rng_b(5);
    SampleBatch batch_a, batch_b;
    ASSERT_TRUE(a->NextBatch(&rng_a, &batch_a).ok());
    ASSERT_TRUE(b->NextBatch(&rng_b, &batch_b).ok());
    ASSERT_EQ(batch_a.size(), batch_b.size());
    for (size_t i = 0; i < batch_a.size(); ++i) {
      EXPECT_EQ(batch_a.unit(i).cluster, batch_b.unit(i).cluster);
      ASSERT_EQ(batch_a.unit(i).offset_count, batch_b.unit(i).offset_count);
      const auto oa = batch_a.offsets(i);
      const auto ob = batch_b.offsets(i);
      EXPECT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin()));
    }
  }
}

TEST(EvaluationServiceTest, HpdStatsAggregateAcrossWorkers) {
  // The per-thread HPD counters must fold into the batch stats — and,
  // being pure algorithm properties, agree exactly across thread counts
  // and with the same jobs run serially on this thread.
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  TwcsSampler twcs(kg, TwcsConfig{});
  const auto jobs = MixedJobs(srs, twcs, annotator);

  EvaluationService one(EvaluationService::Options{.num_threads = 1});
  const auto baseline = one.RunBatch(jobs);
  // The mixed workload includes aHPD jobs, so solves must be visible.
  EXPECT_GT(baseline.stats.hpd.total_solves(), 0u);
  EXPECT_GT(baseline.stats.hpd.total_beta_evals(), 0u);

  EvaluationService four(EvaluationService::Options{.num_threads = 4});
  const auto parallel = four.RunBatch(jobs);
  EXPECT_EQ(parallel.stats.hpd.total_solves(),
            baseline.stats.hpd.total_solves());
  EXPECT_EQ(parallel.stats.hpd.total_beta_evals(),
            baseline.stats.hpd.total_beta_evals());
  EXPECT_EQ(parallel.stats.hpd.onedim.solves,
            baseline.stats.hpd.onedim.solves);
  EXPECT_EQ(parallel.stats.hpd.newton.solves,
            baseline.stats.hpd.newton.solves);

  // The kernel counters fold in the same way, and no fraction of the mix
  // stops at its iteration bound.
  EXPECT_GT(baseline.stats.kernel.calls, 0u);
  EXPECT_EQ(baseline.stats.kernel.cf_bound_stops, 0u);
  EXPECT_EQ(parallel.stats.kernel.calls, baseline.stats.kernel.calls);
  EXPECT_EQ(parallel.stats.kernel.cf_iterations,
            baseline.stats.kernel.cf_iterations);
  EXPECT_EQ(parallel.stats.kernel.cf_bound_stops,
            baseline.stats.kernel.cf_bound_stops);

  ResetThreadHpdStats();
  ResetThreadBetaKernelStats();
  (void)SerialReference(jobs);
  const HpdSolveStats serial = ThreadHpdStatsSnapshot();
  EXPECT_EQ(serial.total_solves(), baseline.stats.hpd.total_solves());
  EXPECT_EQ(serial.total_beta_evals(), baseline.stats.hpd.total_beta_evals());
  const BetaKernelStats serial_kernel = ThreadBetaKernelStatsSnapshot();
  EXPECT_EQ(serial_kernel.calls, baseline.stats.kernel.calls);
  EXPECT_EQ(serial_kernel.cf_iterations, baseline.stats.kernel.cf_iterations);
}

TEST(EvaluationServiceTest, RegisteredPrototypesKeepClonesAcrossBatches) {
  const auto kg = MakeKg(0.85, 500);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  // One worker, four jobs, one group: exactly one context ever clones.
  EvaluationService service(EvaluationService::Options{.num_threads = 1});
  std::vector<EvaluationJob> jobs(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].sampler = &srs;
    jobs[i].annotator = &annotator;
    jobs[i].seed = EvaluationService::DeriveJobSeed(9, i);
  }

  // Unregistered: the clone cache is dropped at the end of every batch,
  // so each batch mints a fresh clone.
  service.RunBatch(jobs);
  EXPECT_EQ(service.sampler_clones_created(), 1u);
  service.RunBatch(jobs);
  EXPECT_EQ(service.sampler_clones_created(), 2u);

  // Registered: the clone survives, later batches mint nothing.
  service.RegisterPrototype(&srs);
  service.RunBatch(jobs);
  EXPECT_EQ(service.sampler_clones_created(), 3u);
  service.RunBatch(jobs);
  service.RunBatch(jobs);
  EXPECT_EQ(service.sampler_clones_created(), 3u);

  // Results are unaffected by cache reuse (sessions Reset their sampler).
  const auto with_cache = service.RunBatch(jobs);
  const auto reference = SerialReference(jobs);
  ASSERT_EQ(with_cache.outcomes.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(with_cache.outcomes[i].status.ok());
    ExpectSameResult(reference[i], with_cache.outcomes[i].result);
  }
}

TEST(EvaluationServiceTest, StressByteIdenticalAcrossThreadsAndGrouping) {
  // The determinism contract, hammered: the same jobs through every
  // execution shape — thread counts {1, 2, 4, hardware}, two rounds per
  // service (contexts reused across batches), and batches of 4, 16 and all
  // 64 jobs (fewer jobs than tasks, and many jobs per task) — must be
  // byte-identical to the serial fresh-clone reference.
  const auto kg = MakeKg(0.85);
  NoisyAnnotator annotator(0.1);  // Stochastic: Rng misuse would show here.
  SrsSampler srs(kg, SrsConfig{.without_replacement = true});
  TwcsSampler twcs(kg, TwcsConfig{});
  // Seeds outermost, so every prefix batch mixes designs and methods.
  std::vector<EvaluationJob> jobs;
  for (uint64_t i = 0; i < 16; ++i) {
    for (const IntervalMethod method :
         {IntervalMethod::kWilson, IntervalMethod::kAhpd}) {
      for (const Sampler* sampler : std::vector<const Sampler*>{&srs, &twcs}) {
        EvaluationJob job;
        job.sampler = sampler;
        job.annotator = &annotator;
        job.config.method = method;
        job.seed = EvaluationService::DeriveJobSeed(7, jobs.size());
        jobs.push_back(std::move(job));
      }
    }
  }
  const auto reference = SerialReference(jobs);

  std::set<int> thread_counts{1, 2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) thread_counts.insert(static_cast<int>(hw));
  for (const int threads : thread_counts) {
    EvaluationService service(
        EvaluationService::Options{.num_threads = threads});
    for (int round = 0; round < 2; ++round) {
      for (const size_t size : {size_t{4}, size_t{16}, jobs.size()}) {
        const std::vector<EvaluationJob> prefix(jobs.begin(),
                                                jobs.begin() + size);
        const auto batch = service.RunBatch(prefix);
        ASSERT_EQ(batch.outcomes.size(), size);
        // One task per worker, never more tasks than jobs.
        EXPECT_EQ(batch.stats.groups,
                  std::min(size, static_cast<size_t>(threads)));
        for (size_t i = 0; i < size; ++i) {
          SCOPED_TRACE("job " + std::to_string(i) + " of " +
                       std::to_string(size) + " @" + std::to_string(threads) +
                       "t round " + std::to_string(round));
          ASSERT_TRUE(batch.outcomes[i].status.ok());
          ExpectSameResult(reference[i], batch.outcomes[i].result);
        }
      }
    }
  }
}

/// Wraps the oracle; its first `Annotate` call blocks until `Release`
/// has been called `needed` times, or until a 60 s bound expires (then
/// `timed_out` is set, so a scheduler that queues work behind the blocked
/// job fails the test instead of hanging it).
class GateAnnotator final : public Annotator {
 public:
  explicit GateAnnotator(int needed) : needed_(needed) {}

  bool Annotate(const KgView& kg, const TripleRef& ref, Rng* rng) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!waited_) {
      waited_ = true;
      timed_out_ = !cv_.wait_for(lock, std::chrono::seconds(60),
                                 [this] { return released_ >= needed_; });
    }
    lock.unlock();
    return inner_.Annotate(kg, ref, rng);
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    ++released_;
    cv_.notify_all();
  }

  bool timed_out() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timed_out_;
  }

 private:
  OracleAnnotator inner_;
  const int needed_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int released_ = 0;
  bool waited_ = false;
  bool timed_out_ = false;
};

TEST(EvaluationServiceTest, StalledJobDoesNotHoldBackTheBatch) {
  // Job 0 stalls on its first judgment until every other job has finished.
  // The idle workers must drain the other 15 jobs meanwhile; a scheduler
  // that queues any job behind job 0 on its worker never releases it.
  const auto kg = MakeKg(0.85, 500);
  OracleAnnotator oracle;
  SrsSampler srs(kg, SrsConfig{});
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    constexpr int kJobs = 16;
    GateAnnotator gate(kJobs - 1);
    std::vector<EvaluationJob> jobs(kJobs);
    for (size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].sampler = &srs;
      jobs[i].annotator = i == 0 ? static_cast<Annotator*>(&gate) : &oracle;
      jobs[i].seed = EvaluationService::DeriveJobSeed(13, i);
      if (i > 0) {
        jobs[i].robustness = [&gate] {
          gate.Release();
          return JobRobustness{};
        };
      }
    }
    EvaluationService service(
        EvaluationService::Options{.num_threads = threads});
    const auto batch = service.RunBatch(jobs);
    EXPECT_FALSE(gate.timed_out()) << "job 0 blocked the rest of the batch";
    for (const auto& outcome : batch.outcomes) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    }
    EXPECT_EQ(batch.stats.groups, static_cast<size_t>(threads));
  }
}

TEST(EvaluationServiceTest, BatchStatsReportTheTimingSplit) {
  const auto kg = MakeKg(0.85);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  TwcsSampler twcs(kg, TwcsConfig{});
  const auto jobs = MixedJobs(srs, twcs, annotator);

  EvaluationService service(EvaluationService::Options{.num_threads = 2});
  const auto first = service.RunBatch(jobs);
  // Spawn is paid at construction and charged to the first batch only; the
  // persistent pool makes every later batch report zero there.
  EXPECT_GT(first.stats.spawn_seconds, 0.0);
  EXPECT_GT(first.stats.groups, 0u);
  EXPECT_EQ(first.stats.stolen_groups, 0u);  // Tasks never move.
  EXPECT_GE(first.stats.submit_seconds, 0.0);
  EXPECT_GE(first.stats.barrier_seconds, 0.0);
  EXPECT_GT(first.stats.run_seconds, 0.0);

  const auto second = service.RunBatch(jobs);
  EXPECT_EQ(second.stats.spawn_seconds, 0.0);
  EXPECT_GT(second.stats.run_seconds, 0.0);
}

TEST(EvaluationServiceTest, OnStepHookObservesEveryIterationAndCanAbort) {
  const auto kg = MakeKg(0.85, 500);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  EvaluationService service(EvaluationService::Options{.num_threads = 2});

  std::atomic<int> observed{0};
  EvaluationJob counting;
  counting.sampler = &srs;
  counting.annotator = &annotator;
  counting.seed = 4;
  counting.on_step = [&observed](const EvaluationSession& session) {
    ++observed;
    EXPECT_GT(session.iterations(), 0);
    return Status::OK();
  };
  EvaluationJob aborting = counting;
  aborting.on_step = [](const EvaluationSession& session) {
    return session.iterations() >= 2
               ? Status::IoError("checkpoint sink full")
               : Status::OK();
  };
  const auto batch = service.RunBatch({counting, aborting});
  ASSERT_EQ(batch.outcomes.size(), 2u);
  ASSERT_TRUE(batch.outcomes[0].status.ok());
  EXPECT_EQ(observed.load(), batch.outcomes[0].result.iterations);
  // The hooked job's result matches the unhooked reference bit for bit.
  EvaluationJob plain = counting;
  plain.on_step = nullptr;
  const auto reference = service.RunBatch({plain});
  ASSERT_TRUE(reference.outcomes[0].status.ok());
  ExpectSameResult(batch.outcomes[0].result, reference.outcomes[0].result);
  // The aborting hook fails its own job only, with its own status.
  EXPECT_EQ(batch.outcomes[1].status.code(), StatusCode::kIoError);
  EXPECT_EQ(batch.stats.failed, 1u);
}

/// Throws from inside the evaluation loop after a few judgments — the
/// misbehaving-user-annotator case the worker boundary must contain.
class ThrowingAnnotator final : public Annotator {
 public:
  explicit ThrowingAnnotator(int throw_after) : throw_after_(throw_after) {}
  bool Annotate(const KgView& kg, const TripleRef& ref, Rng* rng) override {
    if (++calls_ > throw_after_) {
      throw std::runtime_error("annotator backend lost connection");
    }
    return oracle_.Annotate(kg, ref, rng);
  }

 private:
  OracleAnnotator oracle_;
  int throw_after_;
  int calls_ = 0;
};

TEST(EvaluationServiceTest, ThrowingAnnotatorFailsItsJobNotTheProcess) {
  const auto kg = MakeKg(0.85, 500);
  OracleAnnotator healthy;
  ThrowingAnnotator throwing(5);
  SrsSampler srs(kg, SrsConfig{});
  EvaluationService service(EvaluationService::Options{.num_threads = 2});

  EvaluationJob good;
  good.sampler = &srs;
  good.annotator = &healthy;
  good.seed = 11;
  EvaluationJob bad = good;
  bad.annotator = &throwing;
  const auto batch = service.RunBatch({good, bad});
  ASSERT_EQ(batch.outcomes.size(), 2u);
  // The healthy job is untouched; the throwing one reports kInternal with
  // the exception text instead of std::terminate taking the process down.
  EXPECT_TRUE(batch.outcomes[0].status.ok());
  EXPECT_EQ(batch.outcomes[1].status.code(), StatusCode::kInternal);
  EXPECT_NE(batch.outcomes[1].status.message().find("lost connection"),
            std::string::npos);
  EXPECT_EQ(batch.stats.failed, 1u);
  // The pool survives for the next batch.
  const auto again = service.RunBatch({good});
  EXPECT_TRUE(again.outcomes[0].status.ok());
}

TEST(EvaluationServiceTest, RobustnessCollectorFlowsIntoOutcomeAndStats) {
  const auto kg = MakeKg(0.85, 500);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  EvaluationService service(EvaluationService::Options{.num_threads = 2});

  EvaluationJob clean;
  clean.sampler = &srs;
  clean.annotator = &annotator;
  clean.seed = 8;
  EvaluationJob shaky = clean;
  shaky.robustness = [] { return JobRobustness{true, 7}; };
  const auto batch = service.RunBatch({clean, shaky});
  ASSERT_EQ(batch.outcomes.size(), 2u);
  EXPECT_FALSE(batch.outcomes[0].degraded);
  EXPECT_EQ(batch.outcomes[0].retries, 0u);
  EXPECT_TRUE(batch.outcomes[1].degraded);
  EXPECT_EQ(batch.outcomes[1].retries, 7u);
  EXPECT_EQ(batch.stats.degraded_jobs, 1u);
  EXPECT_EQ(batch.stats.total_retries, 7u);
}

TEST(EvaluationServiceTest, UnarmedDefaultReportsZeroRobustnessCounters) {
  const auto kg = MakeKg(0.85, 500);
  OracleAnnotator annotator;
  SrsSampler srs(kg, SrsConfig{});
  EvaluationService service(EvaluationService::Options{.num_threads = 2});
  const auto batch = service.RunBatch(MixedJobs(srs, srs, annotator));
  EXPECT_EQ(batch.stats.degraded_jobs, 0u);
  EXPECT_EQ(batch.stats.total_retries, 0u);
  for (const EvaluationJobOutcome& out : batch.outcomes) {
    EXPECT_FALSE(out.degraded);
    EXPECT_EQ(out.retries, 0u);
  }
}

}  // namespace
}  // namespace kgacc
