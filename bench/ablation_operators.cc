// Ablation: operator mix. The paper fixes mutation/crossover at 0.5/0.5
// without justification; this bench compares mutation-only, crossover-only
// and the paper's mix on the Adult/Eq.2 experiment.
//
// Expectation: crossover drives the big early gains (recombining whole
// segments of good protections); mutation alone fine-tunes slowly; the mixed
// setting is competitive with crossover-only while retaining mutation's
// local-repair ability.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "experiments/report.h"

using namespace evocat;

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("# Ablation: operator mix on Adult, Eq.2 (max)\n");
  std::printf(
      "series,mutation_rate,initial_mean,final_mean,mean_improve_pct,"
      "final_min,accepted_mutations,accepted_crossovers\n");

  for (double rate : {1.0, 0.5, 0.0}) {
    api::JobSpec job = bench::BenchSpec(
        "adult", metrics::ScoreAggregation::kMax, /*generations=*/1000);
    job.ga.mutation_rate = rate;
    auto result = api::Session().Run(job);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const api::RunArtifacts& run = result.ValueOrDie();
    double improve = experiments::ImprovementPercent(run.initial_scores.mean,
                                                     run.final_scores.mean);
    std::printf("operators,%.1f,%.2f,%.2f,%.2f,%.2f,%lld,%lld\n", rate,
                run.initial_scores.mean, run.final_scores.mean, improve,
                run.final_scores.min,
                static_cast<long long>(run.stats.accepted_mutations),
                static_cast<long long>(run.stats.accepted_crossovers));
  }
  return 0;
}
