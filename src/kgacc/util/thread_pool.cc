#include "kgacc/util/thread_pool.h"

#include <chrono>
#include <utility>

#include "kgacc/util/check.h"

namespace kgacc {

namespace {

/// Which pool (if any) the calling thread belongs to, and its worker index
/// there. Lets tasks ask "am I on my home shard?" without any shared state.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_worker = -1;

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void TaskRing::PushBack(std::function<void()> task) {
  if (count_ == slots_.size()) {
    // Full (or never allocated): rebuild at double capacity with the live
    // window rotated to the front.
    std::vector<std::function<void()>> grown(
        NextPowerOfTwo(std::max<size_t>(slots_.size() * 2, 8)));
    for (size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }
  slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(task);
  ++count_;
}

std::function<void()> TaskRing::PopFront() {
  KGACC_CHECK(count_ > 0);
  std::function<void()> task = std::move(slots_[head_]);
  head_ = (head_ + 1) & (slots_.size() - 1);
  --count_;
  return task;
}

std::function<void()> TaskRing::PopBack() {
  KGACC_CHECK(count_ > 0);
  --count_;
  return std::move(slots_[(head_ + count_) & (slots_.size() - 1)]);
}

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  KGACC_CHECK(num_threads >= 1);
  shards_ = std::make_unique<Shard[]>(num_threads);
  workers_.reserve(num_threads);
  const auto spawn_start = std::chrono::steady_clock::now();
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  spawn_seconds_ = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - spawn_start)
                       .count();
}

ThreadPool::~ThreadPool() {
  shutting_down_.store(true);
  {
    // Taking the sleep lock orders the flag store against any worker that
    // is between its dry-run check and actually blocking.
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  for (int i = 0; i < num_threads(); ++i) shards_[i].cv.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::NotifyIfSleepers(int home) {
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
  Shard* target = nullptr;
  {
    // Choosing the target under sleep_mu_ closes the lost-wakeup gap: a
    // worker that already saw an empty pool holds sleep_mu_ until it is
    // actually blocked, so either we see its asleep flag here (and notify
    // its condvar), or it has not set the flag yet — in which case its
    // wait predicate will see the queued_ increment that preceded this
    // call and it never blocks at all. Finding no sleeper despite the
    // lockless sleepers_ hint means every worker is awake and will drain
    // the rings before parking; skipping the notify is then safe.
    std::lock_guard<std::mutex> lock(sleep_mu_);
    const int n = num_threads();
    for (int i = 0; i < n; ++i) {
      Shard& candidate = shards_[(home + i) % n];
      if (candidate.asleep) {
        target = &candidate;
        break;
      }
    }
  }
  // Only the shard's owner ever waits on its condvar, so this wakes
  // exactly the chosen worker — the home worker when it was asleep.
  if (target != nullptr) target->cv.notify_one();
}

void ThreadPool::SubmitTo(int worker, std::function<void()> task) {
  KGACC_CHECK(!shutting_down_.load());
  KGACC_CHECK(worker >= 0 && worker < num_threads());
  // unfinished_ rises before the task is visible so a worker can never
  // finish it (and decrement) first; queued_ rises after the push so a
  // woken worker always finds the task it was woken for.
  unfinished_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(shards_[worker].mu);
    shards_[worker].ring.PushBack(std::move(task));
  }
  queued_.fetch_add(1);
  NotifyIfSleepers(worker);
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return unfinished_.load() == 0; });
}

int ThreadPool::current_worker_index() const {
  return t_pool == this ? t_worker : -1;
}

uint64_t ThreadPool::stolen_tasks() const {
  uint64_t total = 0;
  for (int i = 0; i < num_threads(); ++i) {
    total += shards_[i].stolen.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ThreadPool::executed_tasks() const {
  uint64_t total = 0;
  for (int i = 0; i < num_threads(); ++i) {
    total += shards_[i].executed.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ThreadPool::task_exceptions() const {
  uint64_t total = 0;
  for (int i = 0; i < num_threads(); ++i) {
    total += shards_[i].exceptions.load(std::memory_order_relaxed);
  }
  return total;
}

bool ThreadPool::TryRunOne(int self) {
  const int n = num_threads();
  std::function<void()> task;
  bool stolen = false;
  {
    // Own ring first: the only lock touched in the balanced steady state,
    // and contended only while a thief is mid-steal on this shard.
    Shard& home = shards_[self];
    std::lock_guard<std::mutex> lock(home.mu);
    if (!home.ring.empty()) task = home.ring.PopFront();
  }
  if (!task) {
    // Dry: scan the other shards and steal one whole task off a victim's
    // tail. Starting at self + 1 spreads concurrent thieves apart.
    for (int i = 1; i < n && !task; ++i) {
      Shard& victim = shards_[(self + i) % n];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.ring.empty()) {
        task = victim.ring.PopBack();
        stolen = true;
      }
    }
  }
  if (!task) return false;
  queued_.fetch_sub(1);
  Shard& self_shard = shards_[self];
  try {
    task();
  } catch (...) {
    // A task that slips an exception past its own guards must not take the
    // worker (and via std::terminate the process) down with it: swallow,
    // count, and keep the completion accounting exact so Wait() still
    // returns. Callers that care wrap their work in Result/Status; the
    // counter is the tripwire for ones that forgot.
    self_shard.exceptions.fetch_add(1, std::memory_order_relaxed);
  }
  self_shard.executed.fetch_add(1, std::memory_order_relaxed);
  if (stolen) self_shard.stolen.fetch_add(1, std::memory_order_relaxed);
  if (unfinished_.fetch_sub(1) == 1) {
    // Same lock-before-notify discipline as NotifyIfSleepers, against a
    // Wait() caller between its predicate check and blocking.
    {
      std::lock_guard<std::mutex> lock(done_mu_);
    }
    done_cv_.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop(int self) {
  t_pool = this;
  t_worker = self;
  Shard& shard = shards_[self];
  for (;;) {
    if (TryRunOne(self)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    shard.asleep = true;
    sleepers_.fetch_add(1);
    shard.cv.wait(lock, [this] {
      return shutting_down_.load() || queued_.load() > 0;
    });
    shard.asleep = false;
    sleepers_.fetch_sub(1);
    if (shutting_down_.load() && queued_.load() == 0) return;
  }
}

}  // namespace kgacc
