#include "kgacc/util/thread_pool.h"

#include <chrono>
#include <utility>

#include "kgacc/util/check.h"

namespace kgacc {

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  KGACC_CHECK(num_threads >= 1);
  workers_ = std::make_unique<Worker[]>(num_threads);
  threads_.reserve(num_threads);
  const auto spawn_start = std::chrono::steady_clock::now();
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(workers_[i]); });
  }
  spawn_seconds_ = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - spawn_start)
                       .count();
}

ThreadPool::~ThreadPool() {
  for (int i = 0; i < num_threads_; ++i) {
    {
      std::lock_guard<std::mutex> lock(workers_[i].mu);
      workers_[i].stopping = true;
    }
    workers_[i].cv.notify_one();
  }
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::SubmitTo(int worker, std::function<void()> task) {
  KGACC_CHECK(worker >= 0 && worker < num_threads_);
  Worker& target = workers_[worker];
  // unfinished_ rises before the task is visible so the worker can never
  // finish it (and decrement) first.
  unfinished_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(target.mu);
    KGACC_CHECK(!target.stopping);
    target.queue.push_back(std::move(task));
  }
  target.cv.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return unfinished_.load() == 0; });
}

void ThreadPool::WorkerLoop(Worker& self) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(self.mu);
      self.cv.wait(lock,
                   [&self] { return self.stopping || !self.queue.empty(); });
      // Stopping with an empty queue: every task submitted here has run.
      if (self.queue.empty()) return;
      task = std::move(self.queue.front());
      self.queue.pop_front();
    }
    try {
      task();
    } catch (...) {
      // A stray exception must not take the worker (and via
      // std::terminate the process) down: swallow and count it, and keep
      // the completion accounting exact so Wait() still returns.
      exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (unfinished_.fetch_sub(1) == 1) {
      // Taking the lock orders this against a Wait() caller between its
      // predicate check and blocking, so the notify cannot be lost.
      {
        std::lock_guard<std::mutex> lock(done_mu_);
      }
      done_cv_.notify_all();
    }
  }
}

}  // namespace kgacc
