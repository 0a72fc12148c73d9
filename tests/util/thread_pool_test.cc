#include "kgacc/util/thread_pool.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace kgacc {
namespace {

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
/// can stage queue contents deterministically (nothing runs while parked)
/// and then let chosen workers go. Construction returns once all workers
/// are inside. Call `ReleaseAll()` and `pool.Wait()` before letting this
/// object go out of scope.
class ParkedWorkers {
 public:
  explicit ParkedWorkers(ThreadPool& pool) : release_(pool.num_threads()) {
    const int n = pool.num_threads();
    for (int w = 0; w < n; ++w) {
      pool.SubmitTo(w, [this, w] {
        started_.fetch_add(1);
        while (!release_[w].load()) std::this_thread::yield();
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
  // Staged while everyone is parked: 50 tasks on worker 0's queue. Only
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

TEST(ThreadPoolTest, ConcurrentSubmitToRunsEverythingExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kPerWorker = 500;
  std::vector<std::atomic<int>> hits(4 * kPerWorker);
  // Hammer all four queues from four external submitter threads while the
  // workers pop concurrently — every task must run exactly once.
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

TEST(ThreadPoolTest, EveryTaskRunsOnTheWorkerItWasSubmittedTo) {
  constexpr int kWorkers = 4;
  constexpr int kPerWorker = 200;
  ThreadPool pool(kWorkers);
  std::vector<std::vector<std::thread::id>> ran_on(
      kWorkers, std::vector<std::thread::id>(kPerWorker));
  {
    // Stage every task while the workers are parked, then free workers
    // 1-3 first: they run dry while worker 0's 200 tasks still wait, which
    // is exactly when a pool that moves tasks would move them.
    ParkedWorkers parked(pool);
    std::atomic<int> done{0};
    for (int w = 0; w < kWorkers; ++w) {
      for (int i = 0; i < kPerWorker; ++i) {
        pool.SubmitTo(w, [&ran_on, &done, w, i] {
          ran_on[w][i] = std::this_thread::get_id();
          done.fetch_add(1);
        });
      }
    }
    for (int w = 1; w < kWorkers; ++w) parked.Release(w);
    while (done.load() < (kWorkers - 1) * kPerWorker) {
      std::this_thread::yield();
    }
    parked.ReleaseAll();
    pool.Wait();
  }
  std::vector<std::thread::id> ids;
  for (int w = 0; w < kWorkers; ++w) {
    for (int i = 0; i < kPerWorker; ++i) {
      ASSERT_EQ(ran_on[w][i], ran_on[w][0]) << "worker " << w << " task " << i;
    }
    EXPECT_NE(ran_on[w][0], std::this_thread::get_id());
    ids.push_back(ran_on[w][0]);
  }
  for (int a = 0; a < kWorkers; ++a) {
    for (int b = a + 1; b < kWorkers; ++b) EXPECT_NE(ids[a], ids[b]);
  }
}

TEST(ThreadPoolTest, ABusyWorkerDoesNotDelayOtherWorkers) {
  ThreadPool pool(4);
  ParkedWorkers parked(pool);
  parked.Release(1);
  parked.Release(2);
  parked.Release(3);
  // Worker 0 stays busy. Work queued on the other workers completes
  // meanwhile; work queued on worker 0 waits for worker 0 alone.
  std::atomic<int> others{0};
  std::atomic<int> on_zero{0};
  for (int i = 0; i < 10; ++i) {
    pool.SubmitTo(0, [&on_zero] { on_zero.fetch_add(1); });
  }
  for (int i = 0; i < 300; ++i) {
    pool.SubmitTo(1 + i % 3, [&others] { others.fetch_add(1); });
  }
  while (others.load() < 300) std::this_thread::yield();
  EXPECT_EQ(on_zero.load(), 0);
  parked.ReleaseAll();
  pool.Wait();
  EXPECT_EQ(on_zero.load(), 10);
}

TEST(ThreadPoolTest, SpawnSecondsIsMeasuredOnce) {
  ThreadPool pool(2);
  const double spawn = pool.spawn_seconds();
  EXPECT_GE(spawn, 0.0);
  pool.SubmitTo(0, [] {});
  pool.Wait();
  EXPECT_EQ(pool.spawn_seconds(), spawn);  // Construction-time only.
}

TEST(ThreadPoolTest, ShutdownDrainsNonEmptyQueuesOfParkedWorkers) {
  // Queues still holding tasks at destruction time must be drained — even
  // a queue whose worker spends the whole test parked on another task.
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
    // No Wait(): the destructor must let worker 0 drain its queue before
    // joining.
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
