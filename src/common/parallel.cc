#include "common/parallel.h"

#include "common/task_scheduler.h"

namespace evocat {

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn) {
  if (end - begin < 2) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  // On a scheduler worker (batch jobs, the evocatd daemon, RunOnScheduler,
  // an enclosing ParallelFor chunk) the range splits into chunks that that
  // scheduler's idle workers steal; elsewhere the chunks are injected into
  // the process-wide scheduler's queue with the caller participating. Nested regions therefore fan out across whatever workers
  // are idle instead of serializing. Either way the iteration set and its
  // output slots are identical, so results do not depend on the route.
  if (TaskScheduler::OnWorkerThread()) {
    TaskScheduler::Current()->ParallelForOnWorker(begin, end, fn);
    return;
  }
  TaskScheduler::Shared().ParallelForShared(begin, end, fn);
}

}  // namespace evocat
