#include "kgacc/eval/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kgacc/util/check.h"
#include "kgacc/util/random.h"

namespace kgacc {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

/// Per-task execution state. Task t of every batch owns context t and runs
/// its jobs one after another, so nothing in here needs locking.
struct EvaluationService::WorkerContext {
  struct CachedSampler {
    const Sampler* prototype = nullptr;
    std::unique_ptr<Sampler> clone;
  };

  /// Cloned samplers keyed by prototype pointer. Batches mix a handful of
  /// designs, so a linear scan beats a hash map here.
  std::vector<CachedSampler> samplers;
  /// Reused batch buffers and annotated-sample storage; survives across
  /// batches so the distinct-set tables stay sized for the workload.
  SessionScratch scratch;
  /// Clones this context ever minted (summed into
  /// `sampler_clones_created`); only its own task touches it.
  uint64_t clones_created = 0;

  /// Returns this context's clone for `prototype`. The clone may carry
  /// state from the previous job; EvaluationSession's constructor Reset()s
  /// its sampler, which is the invariant job isolation rests on.
  Sampler* GetSampler(const Sampler* prototype) {
    for (CachedSampler& entry : samplers) {
      if (entry.prototype == prototype) {
        return entry.clone.get();
      }
    }
    std::unique_ptr<Sampler> clone = prototype->Clone();
    KGACC_CHECK(clone != nullptr);
    ++clones_created;
    samplers.push_back(CachedSampler{prototype, std::move(clone)});
    return samplers.back().clone.get();
  }

  /// Drops the cached clones whose prototype is not in `keep`: unregistered
  /// prototypes' populations are only guaranteed to live for the duration
  /// of one RunBatch, while registered ones carry a caller lifetime promise
  /// and their clones amortize across batches.
  void ReleaseSamplers(const std::vector<const Sampler*>& keep) {
    std::erase_if(samplers, [&keep](const CachedSampler& entry) {
      return std::find(keep.begin(), keep.end(), entry.prototype) ==
             keep.end();
    });
  }
};

EvaluationService::EvaluationService() : EvaluationService(Options{}) {}

EvaluationService::EvaluationService(const Options& options)
    : pool_(ResolveThreads(options.num_threads)) {}

EvaluationService::~EvaluationService() = default;

void EvaluationService::RegisterPrototype(const Sampler* prototype) {
  if (prototype == nullptr) return;
  if (std::find(registered_prototypes_.begin(), registered_prototypes_.end(),
                prototype) != registered_prototypes_.end()) {
    return;
  }
  registered_prototypes_.push_back(prototype);
}

uint64_t EvaluationService::sampler_clones_created() const {
  uint64_t total = 0;
  for (const std::unique_ptr<WorkerContext>& context : contexts_) {
    total += context->clones_created;
  }
  return total;
}

uint64_t EvaluationService::DeriveJobSeed(uint64_t base_seed,
                                          uint64_t job_index) {
  // Two SplitMix64 rounds over the (base, index) pair: adjacent indices map
  // to decorrelated streams, and index 0 does not collapse to Mix64(base).
  return Mix64(base_seed ^ Mix64(job_index + 0x9e3779b97f4a7c15ULL));
}

void EvaluationService::RunJob(const EvaluationJob& job,
                               WorkerContext& context,
                               EvaluationJobOutcome* out) {
  out->label = job.label;
  out->seed = job.seed;
  if (job.sampler == nullptr) {
    out->status = Status::InvalidArgument("job has no sampler");
    return;
  }
  if (job.annotator == nullptr) {
    out->status = Status::InvalidArgument("job has no annotator");
    return;
  }
  Sampler* sampler = context.GetSampler(job.sampler);
  // Store-backed job: wrap the annotator in a per-job StoredAnnotator so
  // this job reads the shared label pool and appends its fresh judgments
  // through the store's group-commit queue. The wrapper is per-job state on
  // this worker thread; only the store underneath is shared.
  std::optional<StoredAnnotator> stored;
  Annotator* annotator = job.annotator;
  if (job.store != nullptr) {
    stored.emplace(job.annotator, job.store, job.audit_id, job.store_options);
    annotator = &*stored;
  }
  // The whole job body runs behind a catch-all: an annotator or hook that
  // throws must cost its own job an Internal outcome, never the process
  // (the pool's workers are shared by the entire batch).
  Result<EvaluationResult> result = [&]() -> Result<EvaluationResult> {
    try {
      EvaluationSession session(*sampler, *annotator, job.config, job.seed,
                                &context.scratch);
      if (!job.on_step) return session.Run();
      // Hooked jobs step explicitly so every iteration is observed. A hook
      // failure aborts this job only.
      while (!session.done()) {
        KGACC_RETURN_IF_ERROR(session.Step().status());
        // Fail before the hook checkpoints a step whose labels never
        // reached the log: a snapshot must not certify state the WAL
        // cannot replay.
        if (stored) KGACC_RETURN_IF_ERROR(stored->status());
        KGACC_RETURN_IF_ERROR(job.on_step(session));
      }
      return session.Finish();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("job threw: ") + e.what());
    } catch (...) {
      return Status::Internal("job threw a non-standard exception");
    }
  }();
  if (result.ok()) {
    out->result = std::move(result).value();
  } else {
    out->status = result.status();
  }
  if (job.robustness) {
    const JobRobustness robustness = job.robustness();
    out->degraded = robustness.degraded;
    out->retries = robustness.retries;
  }
  if (stored) {
    out->store_hits = stored->store_hits();
    out->store_oracle_calls = stored->oracle_calls();
    if (stored->degraded()) out->degraded = true;
    out->retries += stored->retries();
    if (out->status.ok() && !stored->status().ok()) {
      // kFail sticky append failure: the report would outrun its log —
      // fail the job rather than return labels the store never saw.
      out->status = stored->status();
    }
  }
}

namespace {

/// Per-task output slot for everything one task writes beyond the job
/// outcomes, padded to a cache line so two workers finishing at once never
/// ping-pong a line between their stores.
struct alignas(64) TaskSlot {
  HpdSolveStats hpd;
  BetaKernelStats kernel;
  double run_seconds = 0.0;
};

}  // namespace

EvaluationBatchResult EvaluationService::RunBatch(
    const std::vector<EvaluationJob>& jobs) {
  EvaluationBatchResult batch;
  batch.outcomes.resize(jobs.size());
  ServiceBatchStats& stats = batch.stats;
  if (!spawn_charged_) {
    // The pool is persistent across batches; spin-up is paid exactly once,
    // at construction, and charged to the first batch's split so short
    // cells cannot hide it inside throughput.
    stats.spawn_seconds = pool_.spawn_seconds();
    spawn_charged_ = true;
  }

  // Snapshot group-commit telemetry for every distinct store the batch
  // references, so the stats below report the *batch's* fsync bill and
  // coalescing factor as deltas, independent of the stores' prior history.
  std::vector<AnnotationStore*> stores;
  std::vector<GroupCommitStats> stores_before;
  for (const EvaluationJob& job : jobs) {
    if (job.store == nullptr) continue;
    if (std::find(stores.begin(), stores.end(), job.store) != stores.end()) {
      continue;
    }
    stores.push_back(job.store);
    stores_before.push_back(job.store->group_commit_stats());
  }

  const auto start = std::chrono::steady_clock::now();
  // One task per worker, each pulling the next unclaimed job off a shared
  // cursor until the batch runs dry: a slow job holds back only itself,
  // and the tail is at most one job long. Task t always runs against
  // context t. Which task runs which job never affects results — each
  // job's path depends only on its seed and its Reset() sampler clone.
  const int num_threads = pool_.num_threads();
  const size_t tasks =
      std::min(jobs.size(), static_cast<size_t>(num_threads));
  while (contexts_.size() < tasks) {
    contexts_.push_back(std::make_unique<WorkerContext>());
  }
  std::atomic<size_t> cursor{0};
  // A task runs start-to-finish on one thread, so resetting the
  // thread-local HPD and kernel counters at task start and snapshotting
  // them at task end yields exact per-task deltas.
  std::vector<TaskSlot> slots(tasks);
  for (size_t t = 0; t < tasks; ++t) {
    pool_.SubmitTo(static_cast<int>(t), [&, t] {
      const auto task_start = std::chrono::steady_clock::now();
      ResetThreadHpdStats();
      ResetThreadBetaKernelStats();
      WorkerContext& context = *contexts_[t];
      while (true) {
        const size_t i = cursor.fetch_add(1);
        if (i >= jobs.size()) break;
        RunJob(jobs[i], context, &batch.outcomes[i]);
      }
      context.ReleaseSamplers(registered_prototypes_);
      TaskSlot& slot = slots[t];
      slot.hpd = ThreadHpdStatsSnapshot();
      slot.kernel = ThreadBetaKernelStatsSnapshot();
      slot.run_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - task_start)
                             .count();
    });
  }
  const auto submitted = std::chrono::steady_clock::now();
  pool_.Wait();
  const auto finished = std::chrono::steady_clock::now();
  stats.submit_seconds =
      std::chrono::duration<double>(submitted - start).count();
  stats.barrier_seconds =
      std::chrono::duration<double>(finished - submitted).count();

  stats.num_threads = num_threads;
  stats.jobs = jobs.size();
  stats.groups = tasks;
  stats.wall_seconds = std::chrono::duration<double>(finished - start).count();
  for (const TaskSlot& slot : slots) {
    stats.hpd += slot.hpd;
    stats.kernel += slot.kernel;
    stats.run_seconds += slot.run_seconds;
  }
  for (const EvaluationJobOutcome& out : batch.outcomes) {
    if (out.degraded) ++stats.degraded_jobs;
    stats.total_retries += out.retries;
    stats.store_hits += out.store_hits;
    stats.store_oracle_calls += out.store_oracle_calls;
    if (!out.status.ok()) {
      ++stats.failed;
      continue;
    }
    stats.annotated_triples += out.result.annotated_triples;
  }
  for (size_t s = 0; s < stores.size(); ++s) {
    const GroupCommitStats after = stores[s]->group_commit_stats();
    stats.store_commit_batches += after.batches - stores_before[s].batches;
    stats.store_commit_frames += after.frames - stores_before[s].frames;
    stats.store_commit_syncs += after.syncs - stores_before[s].syncs;
  }
  if (stats.wall_seconds > 0.0) {
    stats.audits_per_second =
        static_cast<double>(stats.jobs - stats.failed) / stats.wall_seconds;
    stats.triples_per_second =
        static_cast<double>(stats.annotated_triples) / stats.wall_seconds;
  }
  return batch;
}

}  // namespace kgacc
