#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/task_scheduler.h"

namespace evocat {
namespace {

/// The work rule's threshold as parallel.h documents it: one fork/join
/// round trip's worth of operations.
constexpr int64_t kRoundTripWork = int64_t{1} << 14;

/// Lets a fresh scheduler's other workers park, so a split has thieves.
void LetWorkersPark() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

/// Shortest run of consecutive indices executed by one thread, ignoring the
/// run that ends at the last index (the tail chunk may be short).
int64_t ShortestNonTailRun(const std::vector<std::thread::id>& owner) {
  int64_t shortest = std::numeric_limits<int64_t>::max();
  size_t start = 0;
  for (size_t i = 1; i <= owner.size(); ++i) {
    if (i < owner.size() && owner[i] == owner[start]) continue;
    if (i < owner.size()) {
      shortest = std::min(shortest, static_cast<int64_t>(i - start));
    }
    start = i;
  }
  return shortest;
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(0, kN, [&](int64_t i) { visits[static_cast<size_t>(i)] += 1; });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  ParallelFor(5, 5, [&](int64_t) { calls += 1; });
  ParallelFor(5, 3, [&](int64_t) { calls += 1; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, NonZeroBegin) {
  std::atomic<int64_t> sum{0};
  ParallelFor(10, 20, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145);  // 10 + 11 + ... + 19
}

TEST(ParallelForTest, SingleThreadFallback) {
  // On a one-worker scheduler nobody is idle to steal, so the loop runs
  // serially on the caller.
  std::vector<int> order;
  RunOnScheduler(1, [&] {
    ParallelFor(0, 5,
                [&](int64_t i) { order.push_back(static_cast<int>(i)); });
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));  // serial => in order
}

TEST(ParallelForTest, LightLoopRunsInlineInIndexOrder) {
  // 64 iterations of one operation each sit far below one fork/join round
  // trip: even with three idle workers the caller runs them itself, in
  // order, and nothing is queued or stolen.
  constexpr int64_t kN = 64;
  static_assert(kN < kRoundTripWork, "loop must be below the rule");
  std::vector<int64_t> order;
  std::vector<std::thread::id> threads;
  std::thread::id caller;
  int64_t steals_before = 0, steals_after = 0;
  std::mutex mu;
  RunOnScheduler(4, [&] {
    LetWorkersPark();
    caller = std::this_thread::get_id();
    steals_before = TaskScheduler::Current()->steal_count();
    ParallelFor(0, kN, [&](int64_t i) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      threads.push_back(std::this_thread::get_id());
    }, /*work_per_iteration=*/1);
    steals_after = TaskScheduler::Current()->steal_count();
  });
  std::vector<int64_t> expected(kN);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  for (const auto& id : threads) EXPECT_EQ(id, caller);
  EXPECT_EQ(steals_after, steals_before);
}

TEST(ParallelForTest, HeavyLoopSplitsIntoMinimumChunks) {
  // 1000 iterations of 128 operations: above the rule, so the loop splits
  // into chunks of at least 2^14 / 128 = 128 iterations (a finer even split
  // would be 1000 / 16 = 62 on four workers).
  constexpr int64_t kN = 1000;
  constexpr int64_t kWork = 128;
  constexpr int64_t kMinChunk = kRoundTripWork / kWork;
  static_assert(kN * kWork >= kRoundTripWork, "loop must be above the rule");
  for (int workers : {1, 3, 4}) {
    std::vector<std::atomic<int>> visits(kN);
    std::vector<std::thread::id> owner(kN);
    RunOnScheduler(workers, [&] {
      LetWorkersPark();
      ParallelFor(0, kN, [&](int64_t i) {
        visits[static_cast<size_t>(i)] += 1;
        owner[static_cast<size_t>(i)] = std::this_thread::get_id();
        std::this_thread::yield();
      }, kWork);
    });
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(visits[static_cast<size_t>(i)].load(), 1)
          << "index " << i << " on " << workers << " workers";
    }
    EXPECT_GE(ShortestNonTailRun(owner), kMinChunk)
        << workers << " workers";
  }
}

TEST(ParallelForTest, HugeWorkPerIterationNeitherOverflowsNorRunsInline) {
  // count * INT64_MAX would overflow; the rule must still read it as heavy,
  // so the loop splits (the owner runs its newest chunk first, or a thief
  // runs some index) instead of running 0..63 in order on the caller.
  constexpr int64_t kN = 64;
  bool split = false;
  for (int attempt = 0; attempt < 50 && !split; ++attempt) {
    std::vector<std::atomic<int>> visits(kN);
    std::vector<int64_t> order;
    std::vector<std::thread::id> threads;
    std::thread::id caller;
    std::mutex mu;
    RunOnScheduler(4, [&] {
      LetWorkersPark();
      caller = std::this_thread::get_id();
      ParallelFor(0, kN, [&](int64_t i) {
        visits[static_cast<size_t>(i)] += 1;
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
        threads.push_back(std::this_thread::get_id());
      }, std::numeric_limits<int64_t>::max());
    });
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(visits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
    bool inline_order = std::is_sorted(order.begin(), order.end());
    for (const auto& id : threads) inline_order = inline_order && id == caller;
    split = !inline_order;
  }
  EXPECT_TRUE(split);
}

TEST(ParallelForTest, ResultsMatchSerialComputation) {
  constexpr int64_t kN = 512;
  std::vector<double> parallel_out(kN), serial_out(kN);
  auto f = [](int64_t i) {
    return static_cast<double>(i * i) / 3.0 + 1.0;
  };
  ParallelFor(0, kN, [&](int64_t i) { parallel_out[static_cast<size_t>(i)] = f(i); });
  for (int64_t i = 0; i < kN; ++i) serial_out[static_cast<size_t>(i)] = f(i);
  EXPECT_EQ(parallel_out, serial_out);
}

}  // namespace
}  // namespace evocat
