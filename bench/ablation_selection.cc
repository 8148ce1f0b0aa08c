// Ablation: parent-selection strategies (the paper's Eq. 3; see
// docs/reproduction.md).
//
// The paper's Eq. 3 literally favours HIGH (bad) scores; its text describes
// the opposite. This bench runs the Flare/Eq.2 experiment under four
// strategies — inverse-score (our default, the described behaviour), the
// literal Eq. 3, linear rank, and uniform — and compares the optimization
// each achieves. Expectation: inverse/rank clearly beat literal/uniform on
// mean-score improvement, supporting the bug-fix reading of Eq. 3.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "experiments/report.h"

using namespace evocat;

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("# Ablation: selection strategies on Flare, Eq.2 (max)\n");
  std::printf(
      "series,strategy,initial_mean,final_mean,mean_improve_pct,final_min,"
      "final_max\n");

  const core::SelectionStrategy strategies[] = {
      core::SelectionStrategy::kInverseScore,
      core::SelectionStrategy::kLiteralScore,
      core::SelectionStrategy::kRank,
      core::SelectionStrategy::kUniform,
  };
  for (auto strategy : strategies) {
    api::JobSpec job = bench::BenchSpec(
        "flare", metrics::ScoreAggregation::kMax, /*generations=*/1000);
    job.ga.selection = strategy;
    auto result = api::Session().Run(job);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const api::RunArtifacts& run = result.ValueOrDie();
    double improve = experiments::ImprovementPercent(run.initial_scores.mean,
                                                     run.final_scores.mean);
    std::printf("selection,%s,%.2f,%.2f,%.2f,%.2f,%.2f\n",
                core::SelectionStrategyToString(strategy),
                run.initial_scores.mean, run.final_scores.mean, improve,
                run.final_scores.min, run.final_scores.max);
  }
  return 0;
}
