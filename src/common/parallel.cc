#include "common/parallel.h"

#include <algorithm>

#include "common/task_scheduler.h"

namespace evocat {

namespace {

/// Operations one fork/join round trip costs: a loop with less total work
/// runs inline. About one measured round trip of a ParallelFor on the
/// 4-worker shared pool (docs/perf.md, "Nested per-measure parallelism").
constexpr int64_t kMinParallelWork = int64_t{1} << 14;

}  // namespace

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn) {
  ParallelFor(begin, end, fn, kMinParallelWork);
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn,
                 int64_t work_per_iteration) {
  // count * work < kMinParallelWork  <=>  count < ceil(kMinParallelWork /
  // work), which never forms the (possibly overflowing) product.
  const int64_t work = std::max<int64_t>(work_per_iteration, 1);
  const int64_t min_chunk =
      kMinParallelWork / work + (kMinParallelWork % work != 0 ? 1 : 0);
  if (end - begin < 2 || end - begin < min_chunk) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // On a scheduler worker (batch jobs, the evocatd daemon, RunOnScheduler,
  // an enclosing ParallelFor chunk) the range splits into chunks that that
  // scheduler's idle workers steal; elsewhere the chunks are injected into
  // the process-wide scheduler's queue with the caller participating. Nested
  // regions therefore fan out across whatever workers are idle instead of
  // serializing. Either way the iteration set and its output slots are
  // identical, so results do not depend on the route.
  if (TaskScheduler::OnWorkerThread()) {
    TaskScheduler::Current()->ParallelForOnWorker(begin, end, fn, min_chunk);
    return;
  }
  TaskScheduler::Shared().ParallelForShared(begin, end, fn, min_chunk);
}

}  // namespace evocat
