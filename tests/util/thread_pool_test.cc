#include "kgacc/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

TEST(TaskRingTest, FifoOrderThroughGrowth) {
  TaskRing ring;
  std::vector<int> order;
  // Push past several doublings so the rotated-rebuild path runs.
  for (int i = 0; i < 100; ++i) {
    ring.PushBack([&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(ring.size(), 100u);
  while (!ring.empty()) ring.PopFront()();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskRingTest, PopBackTakesNewestPopFrontTakesOldest) {
  TaskRing ring;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    ring.PushBack([&order, i] { order.push_back(i); });
  }
  ring.PopBack()();   // 3: the steal end.
  ring.PopFront()();  // 0: the owner end.
  ring.PopBack()();   // 2
  ring.PopFront()();  // 1
  EXPECT_EQ(order, (std::vector<int>{3, 0, 2, 1}));
}

TEST(TaskRingTest, WrapAroundKeepsOrder) {
  TaskRing ring;
  std::vector<int> order;
  // Interleave pushes and pops so head_ walks around the slot array and
  // the live window straddles the wrap point repeatedly.
  int next = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 3; ++i) {
      ring.PushBack([&order, v = next] { order.push_back(v); });
      ++next;
    }
    ring.PopFront()();
    ring.PopFront()();
  }
  while (!ring.empty()) ring.PopFront()();
  ASSERT_EQ(order.size(), static_cast<size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.SubmitTo(i % pool.num_threads(),
                  [&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Must not hang.
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanWriteDisjointSlots) {
  ThreadPool pool(3);
  std::vector<int> results(50, 0);
  for (int i = 0; i < 50; ++i) {
    pool.SubmitTo(i % pool.num_threads(),
                  [&results, i] { results[i] = i * i; });
  }
  pool.Wait();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPoolTest, MultipleWaitRoundsWork) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) {
      pool.SubmitTo(i % pool.num_threads(),
                  [&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolIsSequentialButComplete) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 30; ++i) {
    pool.SubmitTo(i % pool.num_threads(),
                  [&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 30);
  EXPECT_EQ(pool.num_threads(), 1);
}

/// Parks every worker of a pool inside one spinning task each, so a test
/// can stage ring contents deterministically (nothing runs or gets stolen
/// while parked) and then let chosen workers go. Construction returns once
/// all workers are inside. Call `ReleaseAll()` and `pool.Wait()` before
/// letting this object go out of scope.
class ParkedWorkers {
 public:
  explicit ParkedWorkers(ThreadPool& pool) : release_(pool.num_threads()) {
    const int n = pool.num_threads();
    for (int w = 0; w < n; ++w) {
      // Steals may shuffle which worker runs which park task; each task
      // asks the pool who is actually running it. n spinning tasks across
      // n workers always ends with exactly one per worker.
      pool.SubmitTo(w, [this, &pool] {
        const int self = pool.current_worker_index();
        started_.fetch_add(1);
        while (!release_[self].load()) std::this_thread::yield();
      });
    }
    while (started_.load() < n) std::this_thread::yield();
  }

  void Release(int worker) { release_[worker].store(true); }
  void ReleaseAll() {
    for (auto& flag : release_) flag.store(true);
  }

 private:
  std::vector<std::atomic<bool>> release_;
  std::atomic<int> started_{0};
};

TEST(ThreadPoolTest, SubmitToRunsTasksOfOneWorkerInOrder) {
  ThreadPool pool(3);
  ParkedWorkers parked(pool);
  // Staged while everyone is parked: 50 tasks on worker 0's ring. Only
  // worker 0 gets released, so it alone drains them — and must do so FIFO.
  std::vector<int> order;
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.SubmitTo(0, [&order, &done, i] {
      order.push_back(i);
      done.fetch_add(1);
    });
  }
  parked.Release(0);
  while (done.load() < 50) std::this_thread::yield();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
  parked.ReleaseAll();
  pool.Wait();
}

TEST(ThreadPoolTest, IdleWorkersStealWholeTasksFromABusyShard) {
  ThreadPool pool(4);
  ParkedWorkers parked(pool);
  // 64 tasks staged on worker 0's ring; worker 0 stays parked while the
  // other three get released, so completion is only possible by stealing
  // whole tasks off shard 0.
  const uint64_t stolen_before = pool.stolen_tasks();
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.SubmitTo(0, [&ran] { ran.fetch_add(1); });
  }
  parked.Release(1);
  parked.Release(2);
  parked.Release(3);
  while (ran.load() < 64) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_GE(pool.stolen_tasks() - stolen_before, 64u);
  parked.ReleaseAll();
  pool.Wait();
}

TEST(ThreadPoolTest, ConcurrentSubmitToAndStealRunsEverythingExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kPerWorker = 500;
  std::vector<std::atomic<int>> hits(4 * kPerWorker);
  // Hammer all four rings from four external submitter threads while the
  // workers pop and steal concurrently — every task must run exactly once.
  std::vector<std::thread> submitters;
  for (int w = 0; w < 4; ++w) {
    submitters.emplace_back([&pool, &hits, w] {
      for (int i = 0; i < kPerWorker; ++i) {
        const int slot = w * kPerWorker + i;
        pool.SubmitTo(w, [&hits, slot] { hits[slot].fetch_add(1); });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  pool.Wait();
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
  }
  EXPECT_EQ(pool.executed_tasks(), hits.size());
}

TEST(ThreadPoolTest, CurrentWorkerIndexIdentifiesHomeAndOffPoolThreads) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.current_worker_index(), -1);  // Not a pool thread.
  {
    // Two spinning probes across two workers necessarily end up one per
    // worker; each asks the pool who it is. Both indices must come back
    // valid and distinct — i.e. each in-range index exactly once.
    std::vector<std::atomic<int>> seen(2);
    for (auto& s : seen) s.store(0);
    std::atomic<int> started{0};
    std::atomic<bool> release{false};
    for (int w = 0; w < 2; ++w) {
      pool.SubmitTo(w, [&pool, &seen, &started, &release] {
        const int self = pool.current_worker_index();
        EXPECT_GE(self, 0);
        EXPECT_LT(self, 2);
        if (self >= 0 && self < 2) seen[self].fetch_add(1);
        started.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      });
    }
    while (started.load() < 2) std::this_thread::yield();
    EXPECT_EQ(seen[0].load(), 1);
    EXPECT_EQ(seen[1].load(), 1);
    release.store(true);
    pool.Wait();
  }
  // A second pool's workers are strangers to the first.
  ThreadPool other(1);
  std::atomic<int> cross{0};
  other.SubmitTo(0,
                 [&pool, &cross] { cross.store(pool.current_worker_index()); });
  other.Wait();
  EXPECT_EQ(cross.load(), -1);
}

TEST(ThreadPoolTest, SpawnSecondsIsMeasuredOnce) {
  ThreadPool pool(2);
  const double spawn = pool.spawn_seconds();
  EXPECT_GE(spawn, 0.0);
  pool.SubmitTo(0, [] {});
  pool.Wait();
  EXPECT_EQ(pool.spawn_seconds(), spawn);  // Construction-time only.
}

TEST(ThreadPoolTest, ShutdownDrainsNonEmptyRingsOfParkedWorkers) {
  // Rings still holding tasks at destruction time must be drained — even
  // rings whose home worker spends the whole test parked on another task.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    std::atomic<bool> release{false};
    pool.SubmitTo(0, [&release, &ran] {
      while (!release.load()) std::this_thread::yield();
      ran.fetch_add(1);
    });
    for (int i = 0; i < 30; ++i) {
      pool.SubmitTo(0, [&ran] { ran.fetch_add(1); });
    }
    release.store(true);
    // No Wait(): the destructor must drain shard 0's ring (its owner or
    // thieves, either way) before joining.
  }
  EXPECT_EQ(ran.load(), 31);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 40; ++i) {
      pool.SubmitTo(i % pool.num_threads(),
                  [&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must still run everything.
  }
  EXPECT_EQ(counter.load(), 40);
}

TEST(ThreadPoolTest, SubmitToWakesTheSleepingHomeWorkerDirectly) {
  // Per-worker condvars: when the home worker is asleep, SubmitTo must
  // wake *it* — the task then runs on its home shard via an uncontended
  // PopFront, with no steal. Repeat from a fully-parked pool each round so
  // every submission exercises the targeted-wake path, not a still-awake
  // worker's drain loop.
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    const int home = round % 4;
    while (pool.sleeping_workers() < 4) std::this_thread::yield();
    const uint64_t stolen_before = pool.stolen_tasks();
    std::atomic<int> ran_on{-1};
    pool.SubmitTo(home, [&pool, &ran_on] {
      ran_on.store(pool.current_worker_index());
    });
    pool.Wait();
    EXPECT_EQ(ran_on.load(), home) << "round " << round;
    EXPECT_EQ(pool.stolen_tasks(), stolen_before) << "round " << round;
  }
}

TEST(ThreadPoolTest, ParkedHomeStillGetsItsWorkRunByASleepingThief) {
  // The targeted wake must not strand work when the home worker is busy:
  // with workers 0-2 parked and only worker 3 asleep, a SubmitTo(0, ...)
  // has to fall through to "wake any sleeper" and get the task stolen by
  // worker 3 — never a silent hang waiting for worker 0.
  ThreadPool pool(4);
  ParkedWorkers parked(pool);
  parked.Release(3);
  // Worker 3 finishes its park task and goes to sleep; the others stay
  // parked (busy, not asleep).
  while (pool.sleeping_workers() < 1) std::this_thread::yield();
  std::atomic<int> ran_on{-1};
  std::atomic<bool> done{false};
  pool.SubmitTo(0, [&pool, &ran_on, &done] {
    ran_on.store(pool.current_worker_index());
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_EQ(ran_on.load(), 3);
  parked.ReleaseAll();
  pool.Wait();
}

TEST(ThreadPoolTest, ThrowingTaskIsContainedCountedAndPoolSurvives) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.SubmitTo(i % pool.num_threads(), [&ran, i] {
      if (i % 2 == 0) throw std::runtime_error("task bug");
      ran.fetch_add(1);
    });
  }
  // Wait() must return even though half the tasks threw (completion
  // accounting survives the catch), and the workers keep serving.
  pool.Wait();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(pool.task_exceptions(), 4u);
  EXPECT_EQ(pool.executed_tasks(), 8u);
  pool.SubmitTo(0, [&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 5);
}

}  // namespace
}  // namespace kgacc
