/// \file parallel.h
/// \brief Minimal data-parallel helper used for batch fitness evaluation.

#ifndef EVOCAT_COMMON_PARALLEL_H_
#define EVOCAT_COMMON_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace evocat {

/// \brief Runs `fn(i)` for every i in [begin, end) on the work-stealing
/// `TaskScheduler`.
///
/// Iterations must be independent; results should be written to disjoint
/// slots. On a scheduler worker the loop splits onto that worker's
/// scheduler; elsewhere it runs on the process-wide, hardware-sized one.
/// Chunks of the range are executed by idle workers with the caller
/// participating, and *nested* regions split onto the same pool instead of
/// serializing — an inner measure loop inside an outer per-offspring loop
/// fans out across whatever workers are idle. Tiny ranges, and loops on a
/// worker whose scheduler has no idle worker, run serially in index order;
/// to pin a serial schedule, run the caller through `RunOnScheduler(1, fn)`
/// (common/task_scheduler.h). Blocks until all iterations complete.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn);

}  // namespace evocat

#endif  // EVOCAT_COMMON_PARALLEL_H_
