#ifndef KGACC_UTIL_THREAD_POOL_H_
#define KGACC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.h
/// A fixed-size worker pool with one job ring per worker (shard-per-core).
/// The paper's framework is embarrassingly parallel at the audit level, so
/// the pool's job is to stay out of the way: `SubmitTo` hands a task to a
/// specific worker's private ring (one uncontended per-shard lock), the
/// owner drains its ring FIFO, and only a worker that runs dry takes the
/// slow path of stealing whole tasks from another shard's tail. In the
/// steady state of a balanced batch there is no shared mutable state
/// between workers at all — the global counters below are touched once per
/// task, not once per audit.
///
/// `EvaluationService` submits one task per worker via `SubmitTo`; those
/// tasks balance among themselves by claiming jobs off a shared cursor.
/// The daemon routes each audit's work to its home worker.

namespace kgacc {

/// Grow-on-demand FIFO ring of tasks — the per-worker queue unit. Backed by
/// a power-of-two slot array addressed modulo capacity; `PushBack`/
/// `PopFront` are the owner's FIFO protocol and `PopBack` is the thief's
/// end, so stealing never reorders the owner's upcoming work. Not
/// internally synchronized: the owning shard's mutex serializes access.
class TaskRing {
 public:
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }
  size_t capacity() const { return slots_.size(); }

  /// Appends a task, growing (doubling) when full. Growth is rare and
  /// amortized; submissions are per task, not per audit.
  void PushBack(std::function<void()> task);

  /// Removes and returns the oldest task. Ring must be non-empty.
  std::function<void()> PopFront();

  /// Removes and returns the newest task (steal end). Must be non-empty.
  std::function<void()> PopBack();

 private:
  /// Power-of-two slot array; live tasks occupy [head_, head_ + count_).
  std::vector<std::function<void()>> slots_;
  size_t head_ = 0;
  size_t count_ = 0;
};

/// Fixed-size sharded thread pool. Tasks should not throw — fallible work
/// belongs in Status/Result — but a task that does is contained at the
/// worker boundary and counted (`task_exceptions`), never std::terminate.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1), one job ring each.
  explicit ThreadPool(int num_threads);
  /// Drains every ring (outstanding tasks still run), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task on `worker`'s ring — the shard-per-core handoff. The
  /// home worker runs it unless it is still busy when another worker runs
  /// dry, in which case the whole task is stolen (never split).
  void SubmitTo(int worker, std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  int num_threads() const { return num_threads_; }

  /// Index of the pool worker the calling thread is, or -1 when the caller
  /// is not one of this pool's workers.
  int current_worker_index() const;

  /// Wall-clock cost of spawning the workers (paid once, at construction).
  /// A persistent pool amortizes this across every batch it ever runs; the
  /// `EvaluationService` batch stats surface it so short benchmark cells
  /// cannot silently charge spin-up to throughput.
  double spawn_seconds() const { return spawn_seconds_; }

  /// Tasks executed by a worker other than their submitted home shard
  /// (cumulative). Zero in a perfectly balanced steady state; a high rate
  /// means home assignment is fighting the workload's skew.
  uint64_t stolen_tasks() const;

  /// Tasks executed in total (cumulative, all workers).
  uint64_t executed_tasks() const;

  /// Tasks that threw (cumulative, all workers). The worker boundary
  /// catches everything — a throwing task is counted here and the pool
  /// carries on, instead of std::terminate tearing the process down.
  /// Non-zero means some task violated the tasks-must-not-throw contract.
  uint64_t task_exceptions() const;

  /// Workers currently parked on their shard condvar (instantaneous;
  /// test/diagnostic use).
  int sleeping_workers() const {
    return sleepers_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-worker queue + counters, padded to a cache line so one worker's
  /// bookkeeping writes never invalidate a neighbour's line (the
  /// false-sharing fix: these are the only per-worker fields written on
  /// the task path).
  struct alignas(64) Shard {
    std::mutex mu;
    TaskRing ring;
    /// This worker's private wakeup channel: it is the only thread that
    /// ever waits on this condvar (guarded by the global sleep_mu_, which
    /// keeps the lost-wakeup proof in one place). `SubmitTo` notifies the
    /// home shard's condvar directly, so a targeted submission wakes the
    /// worker that owns the ring instead of whichever sleeper the OS picks
    /// off a shared condvar — the woken worker starts with an uncontended
    /// PopFront, not a steal.
    std::condition_variable cv;
    /// True while the owner is blocked on `cv`. Guarded by sleep_mu_;
    /// submitters use it to pick a wake target (home first, then any
    /// sleeper, so stealing still gets parked-home work running).
    bool asleep = false;
    /// Tasks this worker executed / executed-but-stolen-from-elsewhere.
    /// Written (relaxed) by the owning worker only; the aggregate
    /// accessors read them lockless — monotone counters, staleness is
    /// benign. The alignas keeps one worker's increments off its
    /// neighbours' cache lines.
    std::atomic<uint64_t> executed{0};
    std::atomic<uint64_t> stolen{0};
    /// Tasks that escaped with an exception (caught at the worker
    /// boundary; see `task_exceptions`).
    std::atomic<uint64_t> exceptions{0};
  };

  /// Pops own ring or steals; runs at most one task. False = pool is dry.
  bool TryRunOne(int self);
  void WorkerLoop(int self);
  /// Wakes one sleeping worker for a task just queued on `home`'s ring:
  /// the home worker when it is asleep, else the nearest other sleeper
  /// (scan from home) so parked-home work is still picked up by a thief.
  void NotifyIfSleepers(int home);

  /// Fixed before the first worker spawns: workers read it while the
  /// constructor is still filling `workers_`.
  const int num_threads_;
  std::unique_ptr<Shard[]> shards_;
  std::vector<std::thread> workers_;
  /// Tasks sitting in rings (not yet popped). The sleep predicate.
  std::atomic<size_t> queued_{0};
  /// Tasks submitted but not yet finished executing. The Wait predicate.
  std::atomic<size_t> unfinished_{0};
  /// Workers currently blocked on their shard condvar; lets submitters
  /// skip the lock + notify entirely while everyone is busy. Modified
  /// only under sleep_mu_ (alongside Shard::asleep); read lockless on the
  /// submit fast path.
  std::atomic<int> sleepers_{0};
  std::atomic<bool> shutting_down_{false};
  /// One global sleep lock for every shard's asleep flag and condvar:
  /// sleeping is the cold path, and a single lock keeps the
  /// no-lost-wakeup argument identical to the old single-condvar design —
  /// only the notification target became per-worker.
  std::mutex sleep_mu_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  double spawn_seconds_ = 0.0;
};

}  // namespace kgacc

#endif  // KGACC_UTIL_THREAD_POOL_H_
