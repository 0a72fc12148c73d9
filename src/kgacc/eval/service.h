#ifndef KGACC_EVAL_SERVICE_H_
#define KGACC_EVAL_SERVICE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kgacc/eval/evaluator.h"
#include "kgacc/eval/session.h"
#include "kgacc/intervals/credible.h"
#include "kgacc/math/special.h"
#include "kgacc/sampling/sampler.h"
#include "kgacc/store/annotation_store.h"
#include "kgacc/util/status.h"
#include "kgacc/util/thread_pool.h"

/// \file service.h
/// Multi-audit evaluation service: accepts a batch of independent
/// evaluation jobs (population x sampling design x configuration x seed)
/// and executes them concurrently on a thread pool, one `EvaluationSession`
/// per job. Every "compare N interval methods on M KGs under R repetitions"
/// scenario in the experiment harness is one such batch; the service turns
/// it into a single parallel pass.
///
/// Execution model: one task per worker over a shared job cursor. A batch
/// submits `min(jobs, threads)` tasks, task t to worker t, and each task
/// claims the next unclaimed job index from one atomic cursor until the
/// batch runs dry. The pool never moves a task, so task t runs on worker
/// t, against persistent execution context t: a cache of cloned samplers
/// keyed by job prototype plus reusable session scratch (batch buffers
/// and annotated-sample storage).
/// Balance comes from the cursor, not from a static assignment: a slow
/// job delays only itself, so the batch's tail is at most one job long.
/// Jobs write their outcomes to disjoint slots; the cursor is the only
/// shared mutable state, touched once per job.
///
/// Determinism: each job's stochastic path is fully determined by its own
/// seed (jobs clone their sampler prototypes and own their RNGs; a context
/// Reset()s its cached clone before every job), so batch results are
/// byte-identical regardless of worker count or of which task claimed
/// which job, and are returned in submission order.

namespace kgacc {

/// Robustness telemetry one job's durable machinery reports back to the
/// service (collected via `EvaluationJob::robustness` after the job ran).
struct JobRobustness {
  /// The job finished in degraded mode (store writes were abandoned; see
  /// `StoredAnnotator`/`CheckpointManager` degradation semantics).
  bool degraded = false;
  /// Store-write retries the job's backoff loops performed.
  uint64_t retries = 0;
};

/// One audit to execute.
struct EvaluationJob {
  /// Sampler prototype bound to the job's population. The service clones
  /// it (`Sampler::Clone`) so concurrent jobs never share mutable sampler
  /// state; the prototype itself is not touched. Must outlive RunBatch.
  const Sampler* sampler = nullptr;
  /// Annotation oracle, possibly shared across jobs: `Annotate` must then
  /// be safe to call concurrently. The simulation annotators (Oracle,
  /// Noisy, MajorityVote) qualify — all their randomness flows through the
  /// per-job Rng argument. `InteractiveAnnotator` does not; route human
  /// audits through a single-job batch or `RunEvaluation`.
  Annotator* annotator = nullptr;
  /// Optional durable label store. When set, the worker wraps `annotator`
  /// in a per-job `StoredAnnotator` over `(store, audit_id)`: stored
  /// triples answer from the index at zero oracle cost and fresh judgments
  /// are appended through the store's group-commit queue — so any number
  /// of jobs in one batch may point at the *same* store and share one
  /// label pool (concurrent appends coalesce under shared fsyncs). The
  /// store must outlive RunBatch. A sticky store-write failure fails the
  /// job (kFail) or degrades it (kDegrade, surfaced in the outcome).
  AnnotationStore* store = nullptr;
  /// Audit id for the job's store writes and checkpoints. Concurrent jobs
  /// sharing a store must use distinct ids.
  uint64_t audit_id = 0;
  /// Policy for the wrapping `StoredAnnotator` (retry and degradation).
  /// Ignored when `store` is null.
  StoredAnnotator::Options store_options;
  EvaluationConfig config;
  /// Seed of the job's stochastic path. Use `DeriveJobSeed` to split one
  /// base seed into independent per-job streams, or assign sequential
  /// seeds to reproduce the paper's base_seed + i repetition protocol.
  uint64_t seed = 0;
  /// Free-form tag copied verbatim to the job's outcome (dataset name,
  /// method name, ...).
  std::string label;
  /// Optional per-step hook, invoked after every successful `Step()` of
  /// this job's session — the durable-audit integration point: bind a
  /// `CheckpointManager::OnStep` here and the job snapshots itself into
  /// the annotation WAL as it progresses. A non-OK return aborts the job
  /// with that status (fail the audit rather than outrun its log). A
  /// store-backed step whose labels the store refused fails the job with
  /// the append error before the hook runs, so a checkpoint never
  /// certifies labels the log lacks. Runs on the worker thread; per-job
  /// state only, unless externally synchronized.
  std::function<Status(const EvaluationSession&)> on_step;
  /// Optional robustness collector, called once on the worker thread after
  /// the job's session finished (success or failure). Bind it to the job's
  /// `StoredAnnotator`/`CheckpointManager` so degradation and retry counts
  /// surface in the outcome; leave empty for plain in-memory jobs.
  std::function<JobRobustness()> robustness;
};

/// Outcome of one job: a result or the error that stopped it. Job failures
/// are reported per slot; they never abort the rest of the batch.
struct EvaluationJobOutcome {
  /// OK iff `result` is meaningful.
  Status status;
  EvaluationResult result;
  std::string label;
  uint64_t seed = 0;
  /// The job completed but its durable layer degraded (labels or
  /// checkpoints stopped persisting); `status` is still OK.
  bool degraded = false;
  /// Store-write retries performed by the job (see `JobRobustness`).
  uint64_t retries = 0;
  /// Store-backed jobs only: triples answered from the shared store's
  /// index (no oracle call) and triples delegated to the inner annotator.
  uint64_t store_hits = 0;
  uint64_t store_oracle_calls = 0;
};

/// Aggregate throughput accounting for one RunBatch call.
struct ServiceBatchStats {
  /// Worker threads in the pool.
  int num_threads = 0;
  /// Jobs submitted / jobs that returned a non-OK status.
  size_t jobs = 0;
  size_t failed = 0;
  /// Annotated triples summed over the successful jobs.
  uint64_t annotated_triples = 0;
  /// Wall-clock time of the batch.
  double wall_seconds = 0.0;
  /// Successful audits and annotated triples per wall-clock second.
  double audits_per_second = 0.0;
  double triples_per_second = 0.0;
  /// Timing split of the batch, the diagnosis the thread-scaling work
  /// started from (short cells were dominated by everything *but* run):
  /// * `spawn_seconds` — worker spin-up attributed to this batch. Non-zero
  ///   only for the first batch after construction; the pool is persistent,
  ///   so every later batch reports 0 here.
  /// * `submit_seconds` — main-thread time handing one task to each
  ///   worker's queue.
  /// * `run_seconds` — task execution time summed across tasks, from a
  ///   task's start to its finding the cursor exhausted (aggregate busy
  ///   time, so > wall_seconds when scaling works; over
  ///   `wall_seconds * num_threads` it is the workers' utilization).
  /// * `barrier_seconds` — main-thread time blocked between the last
  ///   handoff and batch completion.
  double spawn_seconds = 0.0;
  double submit_seconds = 0.0;
  double run_seconds = 0.0;
  double barrier_seconds = 0.0;
  /// Tasks the batch submitted (`min(jobs, num_threads)`, one per worker).
  size_t groups = 0;
  /// Always 0: every task runs on the worker it was submitted to. Kept
  /// only because kgbench reads it.
  size_t stolen_groups = 0;
  /// HPD solver counters aggregated across every worker thread of the
  /// batch (per-path solve/eval tallies). The
  /// thread-local `ThreadHpdStatsSnapshot` counters are captured around
  /// each task and summed, so solver efficiency
  /// (beta evals per solve, Newton share) is observable — and gateable —
  /// under parallel load, not just in the single-threaded step bench.
  HpdSolveStats hpd;
  /// Incomplete-beta kernel counters (`math/special.h`), captured the same
  /// way: every method's kernel work, HPD solves and quantile-based
  /// intervals alike, and `cf_bound_stops`, the fractions that stopped at
  /// their iteration bound unconverged (zero on a healthy batch).
  BetaKernelStats kernel;
  /// Robustness aggregates across the batch — both are zero in the
  /// healthy, unarmed default (the invariant the throughput bench records):
  /// jobs that finished degraded, and store-write retries summed over all
  /// jobs.
  size_t degraded_jobs = 0;
  uint64_t total_retries = 0;
  /// Store-backed batch aggregates. Hits/oracle-calls are summed over the
  /// jobs; the commit counters are deltas of `group_commit_stats()` across
  /// the batch for every distinct store the jobs referenced — so
  /// `store_commit_syncs` is the batch's total fsync bill and
  /// `store_commit_frames / store_commit_batches` the group-commit
  /// coalescing factor (frames settled per leader round). All zero for
  /// store-less batches.
  uint64_t store_hits = 0;
  uint64_t store_oracle_calls = 0;
  uint64_t store_commit_batches = 0;
  uint64_t store_commit_frames = 0;
  uint64_t store_commit_syncs = 0;
};

/// Ordered per-job outcomes plus the batch throughput stats.
struct EvaluationBatchResult {
  /// outcomes[i] corresponds to jobs[i] of the RunBatch call.
  std::vector<EvaluationJobOutcome> outcomes;
  ServiceBatchStats stats;
};

/// Executes evaluation-job batches on a fixed worker pool. One service can
/// be reused across many batches; construction cost is the pool spawn.
class EvaluationService {
 public:
  struct Options {
    /// Worker threads; 0 means std::thread::hardware_concurrency()
    /// (at least 1).
    int num_threads = 0;
  };

  /// Default: one worker per hardware thread.
  EvaluationService();
  explicit EvaluationService(const Options& options);
  ~EvaluationService();

  /// Runs every job to completion and returns outcomes in submission
  /// order. Blocks until the whole batch is done. Not reentrant: one
  /// RunBatch at a time per service — the execution contexts are service
  /// state, so a second concurrent call would share scratch with live
  /// sessions (submit one combined batch instead). Job sampler prototypes
  /// only need to outlive the call: cached clones are dropped before it
  /// returns (scratch buffers persist across batches and hold no
  /// population references).
  EvaluationBatchResult RunBatch(const std::vector<EvaluationJob>& jobs);

  int num_threads() const { return pool_.num_threads(); }

  /// Registers a long-lived sampler prototype: worker contexts keep their
  /// cached clones for it across `RunBatch` calls instead of dropping them
  /// at batch end, so a stream of batches over the same population pays
  /// each context's clone once ever. The caller guarantees the prototype
  /// (and its population) outlives the registration — that lifetime
  /// promise is exactly what registration asserts. Must not be called
  /// while a batch is running (the service is not reentrant).
  void RegisterPrototype(const Sampler* prototype);

  /// Sampler clones created by worker contexts so far (service lifetime).
  /// Registration is observable here: repeated batches over a registered
  /// prototype stop minting new clones. Call between batches only.
  uint64_t sampler_clones_created() const;

  /// Splits `base_seed` into the `job_index`-th independent seed stream
  /// (SplitMix64 over the pair), so one user-facing seed can fan out into
  /// any number of decorrelated per-job RNGs.
  static uint64_t DeriveJobSeed(uint64_t base_seed, uint64_t job_index);

 private:
  struct WorkerContext;

  /// Runs one job into `*out`, drawing the sampler clone and scratch from
  /// `context`.
  static void RunJob(const EvaluationJob& job, WorkerContext& context,
                     EvaluationJobOutcome* out);

  ThreadPool pool_;
  /// Whether a batch already reported the pool's one-time spawn cost in
  /// its stats (the pool itself is persistent across RunBatch calls).
  bool spawn_charged_ = false;
  /// One context per task index, grown on demand and reused across
  /// batches (warm scratch capacity).
  std::vector<std::unique_ptr<WorkerContext>> contexts_;
  /// Prototypes whose clone caches survive across batches. Read-only while
  /// a batch runs; mutated only between batches.
  std::vector<const Sampler*> registered_prototypes_;
};

}  // namespace kgacc

#endif  // KGACC_EVAL_SERVICE_H_
