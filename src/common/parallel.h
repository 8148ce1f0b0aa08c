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
/// fans out across whatever workers are idle. Loops on a worker whose
/// scheduler has no idle worker run serially in index order; to pin a
/// serial schedule, run the caller through `RunOnScheduler(1, fn)`
/// (common/task_scheduler.h). Blocks until all iterations complete.
///
/// This overload is for coarse loops (population members, crossover legs,
/// measures, islands): every iteration is assumed to outweigh a fork/join
/// round trip, so any range of two or more iterations may split.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn);

/// \brief `ParallelFor` for loops whose iterations each do about
/// `work_per_iteration` operations (table reads and code compares).
///
/// The work rule: when `(end - begin) * work_per_iteration` is below one
/// fork/join round trip's worth of operations (a private constant of
/// common/parallel.cc, 2^14) the loop runs inline on the caller, in index
/// order, and no task is queued. Otherwise it splits into chunks of at least
/// ceil(2^14 / work_per_iteration) iterations (the tail chunk may be
/// shorter). The test does not overflow for any `work_per_iteration`, and a
/// value below 1 counts as 1. The coarse overload behaves as
/// `work_per_iteration = 2^14`.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn,
                 int64_t work_per_iteration);

}  // namespace evocat

#endif  // EVOCAT_COMMON_PARALLEL_H_
