// Ablation: score aggregation functions — the paper's future-work item
// ("some other ways to aggregate them", §4). Compares the paper's Eq. 1
// (mean) and Eq. 2 (max) with the quadratic mean (euclidean) and a
// privacy-tilted weighted mean on the Adult case, reporting the balance and
// multi-objective quality of the final populations.
//
// Expectation: max gives the most balanced front; euclidean sits between
// mean and max; weighted tilts the final cloud toward the cheap objective.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "experiments/pareto.h"
#include "experiments/report.h"

using namespace evocat;

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("# Ablation: score aggregations on Adult (paper future work)\n");
  std::printf(
      "series,aggregation,il_weight,final_mean,final_balance,front_size,"
      "hypervolume\n");

  struct Setting {
    metrics::ScoreAggregation aggregation;
    double il_weight;
  };
  const Setting settings[] = {
      {metrics::ScoreAggregation::kMean, 0.5},
      {metrics::ScoreAggregation::kMax, 0.5},
      {metrics::ScoreAggregation::kEuclidean, 0.5},
      {metrics::ScoreAggregation::kWeighted, 0.25},  // privacy-tilted
      {metrics::ScoreAggregation::kWeighted, 0.75},  // utility-tilted
  };
  for (const auto& setting : settings) {
    api::JobSpec job =
        bench::BenchSpec("adult", setting.aggregation, /*generations=*/800);
    job.measures.il_weight = setting.il_weight;
    auto result = api::Session().Run(job);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const api::RunArtifacts& run = result.ValueOrDie();
    auto pareto = experiments::AnalyzePareto(run.final_population);
    std::printf("aggregation,%s,%.2f,%.2f,%.2f,%zu,%.4f\n",
                metrics::ScoreAggregationToString(setting.aggregation),
                setting.il_weight, run.final_scores.mean,
                experiments::MeanImbalance(run.final_population),
                pareto.front.size(), pareto.hypervolume);
  }
  return 0;
}
