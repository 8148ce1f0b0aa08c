// Reproduces the paper's §3.2 in-text timing table: average wall time per
// generation split by operator (mutation vs crossover) and by phase (fitness
// evaluation vs everything else).
//
// Paper (Java-era, 2012 hardware): mutation generations averaged 120.34 s
// (120.32 s fitness), crossover generations 242.48 s (242.46 s fitness), and
// the non-fitness remainder was 0.02 s. The *shape* to reproduce: fitness
// dominates (>99% of generation time) and crossover costs ~2x mutation (two
// offspring evaluated instead of one). Absolute numbers are ~4 orders of
// magnitude smaller here (C++, bound measures, modern CPU).

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "common/task_scheduler.h"
#include "experiments/report.h"

using namespace evocat;

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("# Timing table (paper 3.2 in-text numbers)\n");
  std::printf("# paper: mutation 120.34 s/gen (fitness 120.32), crossover "
              "242.48 s/gen (fitness 242.46), rest 0.02 s\n");
  std::printf("# expected shape: fitness share > 0.99, crossover/mutation "
              "ratio ~ 2\n");

  // Serial offspring evaluation so crossover's 2-evaluation cost is visible
  // in wall time exactly as in the paper's sequential implementation: the
  // job runs as one task on a 1-worker scheduler, so every parallel
  // loop inside it (crossover legs, measure fan-out, row shards) runs
  // serially on that worker.
  api::JobSpec job =
      bench::BenchSpec("flare", metrics::ScoreAggregation::kMax,
                       /*generations=*/300);
  Result<api::RunArtifacts> result(Status::Internal("job not executed"));
  RunOnScheduler(1, [&] { result = api::Session().Run(job); });
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  const api::RunArtifacts& run = result.ValueOrDie();
  experiments::PrintTimingSummary(run, std::cout);

  const auto& stats = run.stats;
  auto avg = [](double total, int64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  double mutation_avg =
      avg(stats.mutation_total_seconds, stats.mutation_generations);
  double crossover_avg =
      avg(stats.crossover_total_seconds, stats.crossover_generations);
  std::printf("# crossover/mutation generation cost ratio: %.2f (paper: %.2f)\n",
              mutation_avg > 0 ? crossover_avg / mutation_avg : 0.0,
              242.48 / 120.34);
  double fitness_share =
      (stats.mutation_eval_seconds + stats.crossover_eval_seconds) /
      (stats.mutation_total_seconds + stats.crossover_total_seconds);
  std::printf("# fitness share of generation time: %.4f (paper: %.4f)\n",
              fitness_share, (120.32 + 242.46) / (120.34 + 242.48));
  return 0;
}
