#ifndef KGACC_UTIL_THREAD_POOL_H_
#define KGACC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.h
/// A fixed-size worker pool with one FIFO queue per worker. The paper's
/// audits are independent of one another, so all the pool does is hand
/// each task to a worker: `SubmitTo(w, task)` queues the task on worker
/// w, and worker w alone runs it, in submission order. Anything a caller
/// pins to worker w (its allocations, its context) stays on one thread.
/// `EvaluationService` balances its batches with a shared job cursor; the
/// daemon runs each audit's open and step batches on its home worker.

namespace kgacc {

/// Fixed-size thread pool of pinned workers. Tasks should not throw —
/// fallible work belongs in Status/Result — but a task that does is
/// contained at the worker boundary and counted (`task_exceptions`), never
/// std::terminate.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1), one queue each.
  explicit ThreadPool(int num_threads);
  /// Drains every queue (outstanding tasks still run), then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task on `worker`'s queue; that worker runs it after every
  /// task submitted to it before.
  void SubmitTo(int worker, std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  int num_threads() const { return num_threads_; }

  /// Wall-clock cost of spawning the workers (paid once, at construction;
  /// `EvaluationService` charges it to its first batch).
  double spawn_seconds() const { return spawn_seconds_; }

  /// Tasks executed in total (cumulative, all workers).
  uint64_t executed_tasks() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// Tasks that threw (cumulative, all workers). The worker boundary
  /// catches everything — a throwing task is counted here and the pool
  /// carries on, instead of std::terminate tearing the process down.
  /// Non-zero means some task violated the tasks-must-not-throw contract.
  uint64_t task_exceptions() const {
    return exceptions_.load(std::memory_order_relaxed);
  }

 private:
  /// One worker's queue and wakeup channel, padded to a cache line so
  /// submitters to different workers never share one.
  struct alignas(64) Worker {
    std::mutex mu;
    /// Only the owning worker waits on it; `SubmitTo` and shutdown notify.
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    /// Set by the destructor; the worker exits once its queue is empty.
    bool stopping = false;
  };

  void WorkerLoop(Worker& self);

  const int num_threads_;
  std::unique_ptr<Worker[]> workers_;
  std::vector<std::thread> threads_;
  /// Tasks submitted but not yet finished executing. The Wait predicate.
  std::atomic<size_t> unfinished_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> exceptions_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  double spawn_seconds_ = 0.0;
};

}  // namespace kgacc

#endif  // KGACC_UTIL_THREAD_POOL_H_
