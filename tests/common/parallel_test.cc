#include "common/parallel.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/task_scheduler.h"

namespace evocat {
namespace {

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
