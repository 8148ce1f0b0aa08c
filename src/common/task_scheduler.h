/// \file task_scheduler.h
/// \brief Work-stealing task scheduler for batch job execution.
///
/// The scheduler runs coarse tasks (whole protection jobs) on a fixed set of
/// worker threads and lets a running task split its data-parallel phases —
/// per-grid-point seed protections, per-member initial evaluations, the
/// measures' row loops — into chunk subtasks that *idle* workers steal. When
/// every worker is busy the split is skipped entirely and the loop runs
/// serially on its owner, so a saturated batch behaves exactly like the
/// one-job-per-worker schedule while a skewed batch (one heavy job outliving
/// its siblings) fans its inner loops out across the idle workers. Loops
/// whose total work is below one fork/join round trip never reach the
/// scheduler: `ParallelFor`'s work rule (common/parallel.h) runs them
/// inline and sets the minimum chunk of the rest.
///
/// Scheduling never changes results: subtasks are independent iterations
/// writing disjoint slots, so a stolen chunk computes bit-identically to a
/// serial one. `ParallelFor` (common/parallel.h) routes to the shared
/// scheduler automatically when called from a worker thread.

#ifndef EVOCAT_COMMON_TASK_SCHEDULER_H_
#define EVOCAT_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace evocat {

/// \brief Runs detached tasks on worker threads with work-stealing loops.
class TaskScheduler {
 public:
  /// \brief Completion tracker for a set of submitted tasks.
  class Group {
   public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

   private:
    friend class TaskScheduler;
    std::atomic<int64_t> pending_{0};
  };

  /// \brief `num_threads <= 0` uses the hardware concurrency (min 1).
  explicit TaskScheduler(int num_threads = 0);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// \brief Process-wide scheduler sized to the hardware (created lazily,
  /// lives to process exit).
  static TaskScheduler& Shared();

  /// \brief Enqueues a task; workers pick it up in submission order.
  /// `group` (optional) tracks completion for `Wait`.
  void Submit(Group* group, std::function<void()> fn);

  /// \brief Blocks until every task submitted against `group` has finished.
  /// The caller sleeps rather than executing tasks, so total active threads
  /// never exceed the worker count.
  void Wait(Group* group);

  /// \brief True when the calling thread is a worker of *any* scheduler.
  static bool OnWorkerThread();

  /// \brief The scheduler whose worker loop the calling thread is running,
  /// or nullptr on a non-worker thread.
  static TaskScheduler* Current();

  /// \brief Work-stealing parallel loop; must be called from a worker.
  ///
  /// Splits [begin, end) into chunks of at least `min_chunk` iterations
  /// (only the tail chunk may be shorter) on the calling worker's own deque;
  /// the owner executes them newest-first while idle workers steal
  /// oldest-first. When the range fits in one chunk or no worker is idle the
  /// loop simply runs serially in index order (no queue traffic). Blocks
  /// until every iteration completed. Iterations must be independent.
  /// Nested calls are first-class: a chunk that opens its own inner loop
  /// splits again onto the executing worker's deque, so inner regions feed
  /// the same pool instead of serializing.
  void ParallelForOnWorker(int64_t begin, int64_t end,
                           const std::function<void(int64_t)>& fn,
                           int64_t min_chunk = 1);

  /// \brief Parallel loop entry for *any* thread.
  ///
  /// On a worker of this scheduler it is `ParallelForOnWorker`; on a foreign
  /// thread the chunks are injected into the global queue and the calling
  /// thread participates by draining its own chunks while idle workers take
  /// the rest. Concurrent regions from different threads interleave on the
  /// pool rather than serializing behind a region lock. Chunks hold at least
  /// `min_chunk` iterations, as in `ParallelForOnWorker`. Blocks until every
  /// iteration completed; iterations must be independent.
  void ParallelForShared(int64_t begin, int64_t end,
                         const std::function<void(int64_t)>& fn,
                         int64_t min_chunk = 1);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// \brief Chunks executed by a worker other than their owner (diagnostic;
  /// drives the batch bench's work-stealing report).
  int64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct Task {
    Group* group = nullptr;
    std::function<void()> fn;
  };

  /// Per-worker state; chunk subtasks live in the owner's deque.
  struct Worker {
    std::deque<Task> deque;
  };

  void WorkerLoop(int index);
  /// Iterations per chunk for a `count`-iteration loop: a quarter of an even
  /// per-worker share, never below `min_chunk` (or 1).
  int64_t ChunkSize(int64_t count, int64_t min_chunk) const;
  /// Pops a runnable task: the worker's own deque first (newest), then the
  /// global queue, then steals the oldest chunk from a sibling. Must be
  /// called with `mutex_` held; `thief` is the calling worker's index.
  bool PopTaskLocked(int thief, Task* task);
  /// Executes a claimed task (timing it into the telemetry registry when
  /// metrics are on) and reports completion. Call without `mutex_` held.
  void RunTask(Task* task);
  void FinishTask(const Task& task);

  std::mutex mutex_;
  std::condition_variable wake_;   // workers: new work available
  std::condition_variable done_;   // waiters: some task/group finished
  std::deque<Task> global_queue_;
  std::vector<std::unique_ptr<Worker>> worker_state_;
  std::vector<std::thread> workers_;
  std::atomic<int> idle_workers_{0};
  std::atomic<int64_t> steals_{0};
  bool stop_ = false;
};

/// \brief Runs `fn` as one task on a private scheduler with `workers`
/// threads and waits for it. Every parallel loop inside `fn` then splits over
/// those `workers` threads and the measures shard their builds `workers`
/// ways; results are bit-identical at any count, so `workers == 1` pins a
/// serial schedule without a separate code path.
void RunOnScheduler(int workers, const std::function<void()>& fn);

}  // namespace evocat

#endif  // EVOCAT_COMMON_TASK_SCHEDULER_H_
