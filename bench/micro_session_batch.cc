// micro_session_batch — batch scheduling vs serial Session::Run.
//
// Scenario 1 (uniform): the same set of JobSpecs serially and as one batch,
// checking bit-identical results per job seed and printing the speedup.
//
// Scenario 2 (skewed): 1 heavy job (bigger file, full paper roster — the
// per-grid-point build and per-member evaluation dominate) + N light jobs,
// under both batch schedules. One-job-per-worker leaves the heavy job's
// inner loops serial on a single worker once the light jobs finish; work
// stealing splits them across the idle workers. Results must stay
// bit-identical between the two schedules; the wall-clock gap (and the
// steal counter) is the win. On a single hardware thread both degenerate
// to the same serial schedule (speedup ~1.0).
//
// Scenario 3 (--scale, gated): one 100k-record Adult-shaped job end to end,
// on a 1-worker scheduler and on the shared pool. The best individual must
// be bit-identical — the worker count (and with it every shard count)
// changes wall time, never results. --scale runs ONLY this scenario
// (scenarios 1 and 2 are the default invocation; the scale CI job
// shouldn't repeat them).
//
// Writes every number to BENCH_session.json.

#include <cstdio>
#include <cstring>
#include <thread>

#include "api/session.h"
#include "bench_util.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "datagen/profile.h"

using namespace evocat;

namespace {

/// Fails the bench when any batch slot errored or differs from `reference`.
bool SameArtifacts(const std::vector<api::JobSpec>& jobs,
                   const std::vector<Result<api::RunArtifacts>>& batch,
                   const std::vector<api::RunArtifacts>& reference,
                   const char* label) {
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (!batch[i].ok()) {
      std::fprintf(stderr, "%s %s: %s\n", label, jobs[i].name.c_str(),
                   batch[i].status().ToString().c_str());
      return false;
    }
    if (!batch[i].ValueOrDie().best_data.SameCodes(reference[i].best_data)) {
      std::fprintf(stderr, "%s %s: result differs from reference run\n", label,
                   jobs[i].name.c_str());
      return false;
    }
  }
  return true;
}

/// Scenario 3: a 100k-record job end to end, once on a 1-worker scheduler
/// (serial loops, unsharded builds) and once on the shared pool. Returns
/// false on any job failure or a best-individual mismatch between the two.
bool RunScaleScenario(double* serial_seconds, double* pool_seconds) {
  api::JobSpec big;
  big.name = "scale-100k";
  big.source.kind = api::SourceSpec::Kind::kSynthetic;
  big.source.has_inline_profile = true;
  big.source.profile = datagen::AdultProfile();
  big.source.profile.num_records = 100000;
  big.ga.generations = 10;
  big.seeds.master = 3000;
  big.outputs.initial_population = false;
  big.outputs.final_population = false;
  big.outputs.history = false;

  Result<api::RunArtifacts> serial_run(Status::Internal("not executed"));
  {
    TaskScheduler scheduler(1);
    TaskScheduler::Group group;
    Timer serial_timer;
    scheduler.Submit(&group, [&] {
      api::Session session;
      serial_run = session.Run(big);
    });
    scheduler.Wait(&group);
    *serial_seconds = serial_timer.ElapsedSeconds();
  }
  if (!serial_run.ok()) {
    std::fprintf(stderr, "scale 1-worker: %s\n",
                 serial_run.status().ToString().c_str());
    return false;
  }

  api::Session pool_session;
  Timer pool_timer;
  auto pool_run = pool_session.Run(big);
  *pool_seconds = pool_timer.ElapsedSeconds();
  if (!pool_run.ok()) {
    std::fprintf(stderr, "scale shared pool: %s\n",
                 pool_run.status().ToString().c_str());
    return false;
  }
  if (!pool_run.ValueOrDie().best_data.SameCodes(
          serial_run.ValueOrDie().best_data)) {
    std::fprintf(stderr,
                 "scale-100k: shared-pool result differs from the 1-worker "
                 "run\n");
    return false;
  }
  std::printf(
      "scale-100k: 1 worker: %.2fs  shared pool (%d workers): %.2fs  "
      "speedup: %.2fx (bit-identical)\n",
      *serial_seconds, TaskScheduler::Shared().num_workers(), *pool_seconds,
      *pool_seconds > 0 ? *serial_seconds / *pool_seconds : 0.0);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool scale = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = true;
  }
  if (scale) {
    double serial_seconds = 0.0, pool_seconds = 0.0;
    if (!RunScaleScenario(&serial_seconds, &pool_seconds)) return 1;
    int64_t workers = TaskScheduler::Shared().num_workers();
    bench::JsonObject summary;
    summary.Add("scale_100k_one_worker_seconds", serial_seconds);
    summary.Add("scale_100k_shared_pool_seconds", pool_seconds);
    summary.Add("scale_100k_shared_pool_workers", workers);
    summary.Add("scale_100k_speedup",
                pool_seconds > 0 ? serial_seconds / pool_seconds : 0.0);
    Status status = bench::WriteJsonFile("BENCH_session.json", summary);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote BENCH_session.json\n");
    return 0;
  }
  // Small files with a long evolution: the GA loop is inherently serial per
  // job (one offspring at a time), which is exactly the regime where batch
  // execution pays — jobs spread across the pool instead of idling it.
  constexpr int kJobs = 6;
  constexpr int kGenerations = 400;
  std::vector<api::JobSpec> jobs;
  for (int i = 0; i < kJobs; ++i) {
    api::JobSpec spec;
    spec.name = "batch-" + std::to_string(i);
    spec.source.kind = api::SourceSpec::Kind::kSynthetic;
    spec.source.has_inline_profile = true;
    spec.source.profile =
        datagen::UniformTestProfile("tiny", 200, {9, 7, 11});
    spec.ga.generations = kGenerations;
    spec.seeds.master = 1000 + static_cast<uint64_t>(i);
    spec.outputs.initial_population = false;
    spec.outputs.final_population = false;
    spec.outputs.history = false;
    jobs.push_back(std::move(spec));
  }

  api::Session serial_session;
  Timer serial_timer;
  std::vector<api::RunArtifacts> serial;
  for (const auto& job : jobs) {
    auto run = serial_session.Run(job);
    if (!run.ok()) {
      std::fprintf(stderr, "serial %s: %s\n", job.name.c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    serial.push_back(std::move(run).ValueOrDie());
  }
  double serial_seconds = serial_timer.ElapsedSeconds();

  api::Session batch_session;
  Timer batch_timer;
  auto batch = batch_session.RunBatch(jobs);
  double batch_seconds = batch_timer.ElapsedSeconds();

  for (int i = 0; i < kJobs; ++i) {
    if (!batch[static_cast<size_t>(i)].ok()) {
      std::fprintf(stderr, "batch %s: %s\n", jobs[static_cast<size_t>(i)].name.c_str(),
                   batch[static_cast<size_t>(i)].status().ToString().c_str());
      return 1;
    }
    const auto& b = batch[static_cast<size_t>(i)].ValueOrDie();
    if (!b.best_data.SameCodes(serial[static_cast<size_t>(i)].best_data)) {
      std::fprintf(stderr, "job %d: batch result differs from serial run\n", i);
      return 1;
    }
  }

  double speedup = batch_seconds > 0 ? serial_seconds / batch_seconds : 0.0;
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("jobs=%d generations=%d hardware_threads=%d\n", kJobs,
              kGenerations, threads);
  std::printf("serial: %.2fs  batch: %.2fs  speedup: %.2fx (bit-identical; "
              "batch parallelism is bounded by hardware threads)\n",
              serial_seconds, batch_seconds, speedup);

  // --- Scenario 2: skewed batch, one-job-per-worker vs work stealing. ---
  // The heavy job runs the full default Adult roster (86 grid points) over a
  // bigger synthetic file; its seed-protection build and initial population
  // evaluation are the stealable phases. The light jobs finish first and
  // free their workers.
  std::vector<api::JobSpec> skewed;
  {
    api::JobSpec heavy;
    heavy.name = "skew-heavy";
    heavy.source.kind = api::SourceSpec::Kind::kSynthetic;
    heavy.source.has_inline_profile = true;
    heavy.source.profile =
        datagen::UniformTestProfile("skew-big", 700, {12, 9, 15});
    heavy.ga.generations = 60;
    heavy.seeds.master = 2000;
    heavy.outputs.initial_population = false;
    heavy.outputs.final_population = false;
    heavy.outputs.history = false;
    skewed.push_back(std::move(heavy));
    for (int i = 0; i < kJobs - 1; ++i) {
      api::JobSpec light;
      light.name = "skew-light-" + std::to_string(i);
      light.source.kind = api::SourceSpec::Kind::kSynthetic;
      light.source.has_inline_profile = true;
      light.source.profile =
          datagen::UniformTestProfile("skew-tiny", 150, {9, 7, 11});
      light.ga.generations = 150;
      light.seeds.master = 2100 + static_cast<uint64_t>(i);
      light.outputs.initial_population = false;
      light.outputs.final_population = false;
      light.outputs.history = false;
      skewed.push_back(std::move(light));
    }
  }

  // Reference artifacts (serial solo runs) for the parity check.
  api::Session skew_reference_session;
  std::vector<api::RunArtifacts> skew_reference;
  for (const auto& job : skewed) {
    auto run = skew_reference_session.Run(job);
    if (!run.ok()) {
      std::fprintf(stderr, "reference %s: %s\n", job.name.c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    skew_reference.push_back(std::move(run).ValueOrDie());
  }

  api::Session::BatchOptions one_per_worker;
  one_per_worker.work_stealing = false;
  api::Session legacy_session;
  Timer legacy_timer;
  auto legacy = legacy_session.RunBatch(skewed, one_per_worker);
  double legacy_seconds = legacy_timer.ElapsedSeconds();
  if (!SameArtifacts(skewed, legacy, skew_reference, "one-per-worker")) {
    return 1;
  }

  int64_t steals_before = TaskScheduler::Shared().steal_count();
  api::Session::BatchOptions stealing;
  stealing.work_stealing = true;
  api::Session stealing_session;
  Timer stealing_timer;
  auto stolen = stealing_session.RunBatch(skewed, stealing);
  double stealing_seconds = stealing_timer.ElapsedSeconds();
  int64_t steals =
      TaskScheduler::Shared().steal_count() - steals_before;
  if (!SameArtifacts(skewed, stolen, skew_reference, "work-stealing")) {
    return 1;
  }

  double skew_speedup =
      stealing_seconds > 0 ? legacy_seconds / stealing_seconds : 0.0;
  std::printf(
      "skewed (1 heavy + %d light): one-per-worker: %.2fs  "
      "work-stealing: %.2fs  speedup: %.2fx  stolen_subtasks: %lld "
      "(bit-identical)\n",
      kJobs - 1, legacy_seconds, stealing_seconds, skew_speedup,
      static_cast<long long>(steals));

  bench::JsonObject summary;
  summary.Add("jobs", static_cast<int64_t>(kJobs));
  summary.Add("hardware_threads", static_cast<int64_t>(threads));
  summary.Add("serial_seconds", serial_seconds);
  summary.Add("batch_seconds", batch_seconds);
  summary.Add("batch_speedup", speedup);
  summary.Add("skewed_one_per_worker_seconds", legacy_seconds);
  summary.Add("skewed_work_stealing_seconds", stealing_seconds);
  summary.Add("skewed_speedup", skew_speedup);
  summary.Add("skewed_stolen_subtasks", steals);
  // Telemetry-plane counters (fresh process: totals == this bench's runs).
  {
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    summary.Add("csv_cache_hits",
                registry.CounterValue("evocat_csv_cache_hits_total"));
    summary.Add("csv_cache_misses",
                registry.CounterValue("evocat_csv_cache_misses_total"));
    int64_t fallbacks = 0;
    for (const char* measure :
         {"ctbil", "dbil", "ebil", "id", "dbrl", "prl", "rsrl"}) {
      fallbacks += registry.CounterValue("evocat_rebuild_fallbacks_total",
                                         {{"measure", measure}});
    }
    summary.Add("rebuild_fallbacks", fallbacks);
    summary.Add("scheduler_steals",
                registry.CounterValue("evocat_scheduler_steals_total"));
  }
  Status status = bench::WriteJsonFile("BENCH_session.json", summary);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_session.json\n");
  return 0;
}
