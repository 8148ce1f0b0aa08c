#include "common/task_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace evocat {

namespace {

/// Set while a thread runs a scheduler's worker loop (or executes a stolen
/// chunk); lets ParallelFor route loops back into the owning scheduler.
thread_local TaskScheduler* t_scheduler = nullptr;
thread_local int t_worker_index = -1;

/// Registry handles, resolved once. The gauges aggregate across every
/// scheduler instance (tests build private ones); the process-wide numbers
/// are what /healthz and /metrics report.
obs::Counter* StealsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_scheduler_steals_total",
      "Chunk subtasks executed by a worker other than their owner.");
  return counter;
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "evocat_scheduler_queue_depth",
      "Tasks and chunk subtasks currently queued and not yet claimed.");
  return gauge;
}

obs::Gauge* WorkersGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "evocat_scheduler_workers",
      "Worker threads across all live schedulers.");
  return gauge;
}

obs::Histogram* TaskSecondsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "evocat_scheduler_task_seconds",
          "Wall time per claimed task or chunk; the _sum is total busy "
          "worker-seconds (utilization numerator).");
  return histogram;
}

}  // namespace

TaskScheduler::TaskScheduler(int num_threads) {
  int count = num_threads;
  if (count <= 0) {
    count = static_cast<int>(std::thread::hardware_concurrency());
    if (count <= 0) count = 4;
  }
  worker_state_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    worker_state_.push_back(std::make_unique<Worker>());
  }
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  WorkersGauge()->Add(count);
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
  WorkersGauge()->Add(-static_cast<int64_t>(workers_.size()));
}

TaskScheduler& TaskScheduler::Shared() {
  // Leaked deliberately: worker threads must outlive every static destructor.
  static TaskScheduler* shared = new TaskScheduler();
  return *shared;
}

bool TaskScheduler::OnWorkerThread() { return t_scheduler != nullptr; }

TaskScheduler* TaskScheduler::Current() { return t_scheduler; }

void TaskScheduler::Submit(Group* group, std::function<void()> fn) {
  if (group != nullptr) {
    group->pending_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    global_queue_.push_back(Task{group, std::move(fn)});
  }
  QueueDepthGauge()->Increment();
  wake_.notify_one();
}

void TaskScheduler::Wait(Group* group) {
  if (group == nullptr) return;
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] {
    return group->pending_.load(std::memory_order_acquire) == 0;
  });
}

bool TaskScheduler::PopTaskLocked(int thief, Task* task) {
  Worker& own = *worker_state_[static_cast<size_t>(thief)];
  if (!own.deque.empty()) {
    *task = std::move(own.deque.back());
    own.deque.pop_back();
    QueueDepthGauge()->Decrement();
    return true;
  }
  if (!global_queue_.empty()) {
    *task = std::move(global_queue_.front());
    global_queue_.pop_front();
    QueueDepthGauge()->Decrement();
    return true;
  }
  // Steal the oldest chunk of a sibling; oldest-first keeps the victim's
  // newest (cache-warm) chunks with their owner.
  for (size_t offset = 1; offset < worker_state_.size(); ++offset) {
    size_t victim = (static_cast<size_t>(thief) + offset) % worker_state_.size();
    Worker& other = *worker_state_[victim];
    if (!other.deque.empty()) {
      *task = std::move(other.deque.front());
      other.deque.pop_front();
      steals_.fetch_add(1, std::memory_order_relaxed);
      StealsCounter()->Increment();
      QueueDepthGauge()->Decrement();
      return true;
    }
  }
  return false;
}

void TaskScheduler::RunTask(Task* task) {
  if (obs::MetricsEnabled()) {
    auto start = std::chrono::steady_clock::now();
    task->fn();
    TaskSecondsHistogram()->Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  } else {
    task->fn();
  }
  FinishTask(*task);
}

void TaskScheduler::FinishTask(const Task& task) {
  if (task.group == nullptr) return;
  bool completed =
      task.group->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (completed) {
    // Lock pairs the notification with Wait's predicate check.
    std::lock_guard<std::mutex> lock(mutex_);
    done_.notify_all();
  }
}

void TaskScheduler::WorkerLoop(int index) {
  t_scheduler = this;
  t_worker_index = index;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Task task;
    if (PopTaskLocked(index, &task)) {
      lock.unlock();
      RunTask(&task);
      lock.lock();
      continue;
    }
    if (stop_) return;
    idle_workers_.fetch_add(1, std::memory_order_release);
    wake_.wait(lock);
    idle_workers_.fetch_sub(1, std::memory_order_release);
  }
}

int64_t TaskScheduler::ChunkSize(int64_t count, int64_t min_chunk) const {
  return std::max<int64_t>(
      std::max<int64_t>(min_chunk, 1),
      count / (static_cast<int64_t>(worker_state_.size()) * 4));
}

void TaskScheduler::ParallelForOnWorker(
    int64_t begin, int64_t end, const std::function<void(int64_t)>& fn,
    int64_t min_chunk) {
  int64_t count = end - begin;
  if (count <= 0) return;
  const int worker = t_worker_index;
  const int64_t chunk = ChunkSize(count, min_chunk);
  // Serial fast paths: one-chunk ranges, foreign threads, and — the common
  // case in a saturated batch — no idle worker to steal anything.
  if (count <= chunk || t_scheduler != this ||
      idle_workers_.load(std::memory_order_acquire) == 0) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  Group group;
  Worker& own = *worker_state_[static_cast<size_t>(worker)];
  int64_t chunks = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int64_t start = begin; start < end; start += chunk) {
      int64_t stop = std::min(end, start + chunk);
      group.pending_.fetch_add(1, std::memory_order_relaxed);
      own.deque.push_back(Task{&group, [&fn, start, stop] {
                                 for (int64_t i = start; i < stop; ++i) fn(i);
                               }});
      ++chunks;
    }
  }
  QueueDepthGauge()->Add(chunks);
  wake_.notify_all();

  // The owner drains its own chunks newest-first; thieves take them
  // oldest-first. Once every chunk is claimed the owner sleeps until the
  // last thief reports in.
  std::unique_lock<std::mutex> lock(mutex_);
  while (group.pending_.load(std::memory_order_acquire) > 0) {
    if (!own.deque.empty() && own.deque.back().group == &group) {
      Task task = std::move(own.deque.back());
      own.deque.pop_back();
      QueueDepthGauge()->Decrement();
      lock.unlock();
      RunTask(&task);
      lock.lock();
      continue;
    }
    done_.wait(lock, [&] {
      return group.pending_.load(std::memory_order_acquire) == 0;
    });
  }
}

void TaskScheduler::ParallelForShared(
    int64_t begin, int64_t end, const std::function<void(int64_t)>& fn,
    int64_t min_chunk) {
  int64_t count = end - begin;
  if (count <= 0) return;
  if (t_scheduler == this && t_worker_index >= 0) {
    ParallelForOnWorker(begin, end, fn, min_chunk);
    return;
  }
  const int64_t chunk = ChunkSize(count, min_chunk);
  if (count <= chunk) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  Group group;
  int64_t chunks = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int64_t start = begin; start < end; start += chunk) {
      int64_t stop = std::min(end, start + chunk);
      group.pending_.fetch_add(1, std::memory_order_relaxed);
      global_queue_.push_back(Task{&group, [&fn, start, stop] {
                                     for (int64_t i = start; i < stop; ++i) {
                                       fn(i);
                                     }
                                   }});
      ++chunks;
    }
  }
  QueueDepthGauge()->Add(chunks);
  wake_.notify_all();

  // The caller participates: it drains its own chunks from the global queue
  // (skipping foreign tasks) and sleeps only once every remaining chunk is
  // running on a worker.
  std::unique_lock<std::mutex> lock(mutex_);
  while (group.pending_.load(std::memory_order_acquire) > 0) {
    auto it = std::find_if(
        global_queue_.begin(), global_queue_.end(),
        [&group](const Task& task) { return task.group == &group; });
    if (it != global_queue_.end()) {
      Task task = std::move(*it);
      global_queue_.erase(it);
      QueueDepthGauge()->Decrement();
      lock.unlock();
      RunTask(&task);
      lock.lock();
      continue;
    }
    done_.wait(lock, [&] {
      return group.pending_.load(std::memory_order_acquire) == 0;
    });
  }
}

void RunOnScheduler(int workers, const std::function<void()>& fn) {
  TaskScheduler scheduler(workers);
  TaskScheduler::Group group;
  scheduler.Submit(&group, fn);
  scheduler.Wait(&group);
}

}  // namespace evocat
