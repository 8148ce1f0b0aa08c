// Ablation: per-measure contribution to the fitness. Drops one IL or DR
// measure at a time from the aggregate (paper §4 notes the approach adapts
// to different measure sets) and reports where the Adult/Eq.2 optimization
// lands. Large shifts in the final (IL, DR) of the best individual reveal
// which measures anchor the score.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"

using namespace evocat;

namespace {

struct Variant {
  std::string name;
  metrics::FitnessEvaluator::Options options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"full", {}});
  for (const metrics::FitnessMeasure& measure : metrics::FitnessMeasures()) {
    metrics::FitnessEvaluator::Options options;
    options.*measure.enabled = false;
    variants.push_back({std::string("no_") + measure.key, options});
  }
  return variants;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("# Ablation: drop-one-measure fitness on Adult, Eq.2 (max)\n");
  std::printf("series,variant,final_min_score,best_il,best_dr\n");

  auto dataset_case = experiments::CaseByName("adult").ValueOrDie();
  for (const auto& variant : Variants()) {
    auto options =
        bench::BenchOptions(metrics::ScoreAggregation::kMax, /*generations=*/600);
    options.fitness = variant.options;
    auto result = experiments::RunExperiment(dataset_case, options);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const auto& experiment = result.ValueOrDie();
    const auto& best = experiment.final_population.front();
    std::printf("measures,%s,%.2f,%.2f,%.2f\n", variant.name.c_str(),
                experiment.final_scores.min, best.il, best.dr);
  }
  std::printf("# note: scores across variants are not directly comparable "
              "(different aggregates); compare the (IL, DR) landing zones.\n");
  return 0;
}
