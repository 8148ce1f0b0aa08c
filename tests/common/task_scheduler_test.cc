#include "common/task_scheduler.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"

namespace evocat {
namespace {

TEST(TaskSchedulerTest, SubmitAndWaitRunsEveryTask) {
  TaskScheduler scheduler(3);
  std::atomic<int> runs{0};
  TaskScheduler::Group group;
  for (int i = 0; i < 32; ++i) {
    scheduler.Submit(&group, [&runs] { runs.fetch_add(1); });
  }
  scheduler.Wait(&group);
  EXPECT_EQ(runs.load(), 32);
}

TEST(TaskSchedulerTest, WaitOnEmptyGroupReturnsImmediately) {
  TaskScheduler scheduler(2);
  TaskScheduler::Group group;
  scheduler.Wait(&group);  // must not hang
}

TEST(TaskSchedulerTest, WorkerThreadIsDetected) {
  TaskScheduler scheduler(2);
  EXPECT_FALSE(TaskScheduler::OnWorkerThread());
  std::atomic<bool> on_worker{false};
  TaskScheduler::Group group;
  scheduler.Submit(&group, [&on_worker] {
    on_worker.store(TaskScheduler::OnWorkerThread() &&
                    TaskScheduler::Current() != nullptr);
  });
  scheduler.Wait(&group);
  EXPECT_TRUE(on_worker.load());
}

TEST(TaskSchedulerTest, RunOnSchedulerRunsOnAPrivateSchedulerOfThatSize) {
  for (int workers : {1, 3}) {
    bool private_scheduler = false;
    int current_workers = 0;
    std::atomic<int> visits{0};
    RunOnScheduler(workers, [&] {
      TaskScheduler* current = TaskScheduler::Current();
      private_scheduler = current != &TaskScheduler::Shared();
      current_workers = current->num_workers();
      ParallelFor(0, 64, [&visits](int64_t) { visits.fetch_add(1); });
    });
    EXPECT_TRUE(private_scheduler);
    EXPECT_EQ(current_workers, workers);
    EXPECT_EQ(visits.load(), 64);
  }
}

TEST(TaskSchedulerTest, ParallelForOnWorkerVisitsEveryIndexOnce) {
  TaskScheduler scheduler(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v.store(0);
  TaskScheduler::Group group;
  scheduler.Submit(&group, [&] {
    scheduler.ParallelForOnWorker(0, kN, [&](int64_t i) {
      visits[static_cast<size_t>(i)].fetch_add(1);
    });
  });
  scheduler.Wait(&group);
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(TaskSchedulerTest, ParallelForKeepsTheMinimumChunk) {
  // Both entry points (a worker's own deque, and a foreign thread feeding
  // the global queue) cut chunks of at least `min_chunk` iterations, not
  // the 520 / 16 = 32 of an even split on four workers. Each thread's runs
  // of consecutive indices are whole chunks, so only a run ending in the
  // tail chunk [500, 520) may be shorter.
  constexpr int64_t kN = 520;
  constexpr int64_t kMinChunk = 50;
  for (int workers : {1, 3, 4}) {
    TaskScheduler scheduler(workers);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (bool on_worker : {true, false}) {
      std::vector<std::atomic<int>> visits(kN);
      std::vector<std::thread::id> owner(kN);
      auto body = [&](int64_t i) {
        visits[static_cast<size_t>(i)].fetch_add(1);
        owner[static_cast<size_t>(i)] = std::this_thread::get_id();
        std::this_thread::yield();
      };
      if (on_worker) {
        TaskScheduler::Group group;
        scheduler.Submit(&group, [&] {
          scheduler.ParallelForOnWorker(0, kN, body, kMinChunk);
        });
        scheduler.Wait(&group);
      } else {
        scheduler.ParallelForShared(0, kN, body, kMinChunk);
      }
      size_t start = 0;
      for (size_t i = 1; i <= owner.size(); ++i) {
        if (i < owner.size() && owner[i] == owner[start]) continue;
        if (i < owner.size()) {
          EXPECT_GE(static_cast<int64_t>(i - start), kMinChunk)
              << "run at " << start << ", " << workers << " workers, "
              << (on_worker ? "worker" : "foreign") << " caller";
        }
        start = i;
      }
      for (int64_t i = 0; i < kN; ++i) {
        EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
      }
    }
  }
}

TEST(TaskSchedulerTest, NestedParallelForCompletes) {
  TaskScheduler scheduler(4);
  constexpr int64_t kOuter = 16;
  constexpr int64_t kInner = 64;
  std::atomic<int64_t> total{0};
  TaskScheduler::Group group;
  scheduler.Submit(&group, [&] {
    scheduler.ParallelForOnWorker(0, kOuter, [&](int64_t) {
      scheduler.ParallelForOnWorker(0, kInner,
                                    [&](int64_t) { total.fetch_add(1); });
    });
  });
  scheduler.Wait(&group);
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(TaskSchedulerTest, PlainParallelForRoutesThroughWorkerScheduler) {
  // A ParallelFor issued from a worker thread must route to the worker's own
  // scheduler (not the shared one) and still cover the range exactly.
  TaskScheduler scheduler(3);
  constexpr int64_t kN = 257;
  std::vector<std::atomic<int>> visits(kN);
  for (auto& v : visits) v.store(0);
  TaskScheduler::Group group;
  scheduler.Submit(&group, [&] {
    ParallelFor(0, kN,
                [&](int64_t i) { visits[static_cast<size_t>(i)].fetch_add(1); });
  });
  scheduler.Wait(&group);
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(TaskSchedulerTest, SkewedLoadStealsWork) {
  // One task fans out a long loop while every other worker idles: with more
  // than one worker some chunks get stolen. Park the workers first (on a
  // single-core box the worker threads may not have run at all yet, and a
  // split is only attempted when idle workers exist), then yield inside the
  // loop body so thieves get CPU time even with one hardware thread.
  TaskScheduler scheduler(4);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int64_t expected = 0;
  std::atomic<int64_t> total{0};
  for (int attempt = 0; attempt < 50 && scheduler.steal_count() == 0;
       ++attempt) {
    expected += 4096;
    TaskScheduler::Group group;
    scheduler.Submit(&group, [&] {
      scheduler.ParallelForOnWorker(0, 4096, [&](int64_t) {
        std::this_thread::yield();
        total.fetch_add(1);
      });
    });
    scheduler.Wait(&group);
  }
  EXPECT_EQ(total.load(), expected);
  EXPECT_GT(scheduler.steal_count(), 0);
}

TEST(TaskSchedulerTest, ManyGroupsInterleave) {
  TaskScheduler scheduler(3);
  std::atomic<int> a{0}, b{0};
  TaskScheduler::Group group_a, group_b;
  for (int i = 0; i < 10; ++i) {
    scheduler.Submit(&group_a, [&a] { a.fetch_add(1); });
    scheduler.Submit(&group_b, [&b] { b.fetch_add(1); });
  }
  scheduler.Wait(&group_a);
  EXPECT_EQ(a.load(), 10);
  scheduler.Wait(&group_b);
  EXPECT_EQ(b.load(), 10);
}

}  // namespace
}  // namespace evocat
