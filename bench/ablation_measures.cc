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
  /// `measures.enabled`: empty means all seven.
  std::vector<std::string> enabled;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"full", {}});
  for (const metrics::FitnessMeasure& dropped : metrics::FitnessMeasures()) {
    Variant variant{std::string("no_") + dropped.key, {}};
    for (const metrics::FitnessMeasure& measure : metrics::FitnessMeasures()) {
      if (&measure != &dropped) variant.enabled.push_back(measure.name);
    }
    variants.push_back(std::move(variant));
  }
  return variants;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("# Ablation: drop-one-measure fitness on Adult, Eq.2 (max)\n");
  std::printf("series,variant,final_min_score,best_il,best_dr\n");

  for (const auto& variant : Variants()) {
    api::JobSpec job = bench::BenchSpec(
        "adult", metrics::ScoreAggregation::kMax, /*generations=*/600);
    job.measures.enabled = variant.enabled;
    auto result = api::Session().Run(job);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const api::RunArtifacts& run = result.ValueOrDie();
    const metrics::FitnessBreakdown& best =
        run.final_population.front().fitness;
    std::printf("measures,%s,%.2f,%.2f,%.2f\n", variant.name.c_str(),
                run.final_scores.min, best.il, best.dr);
  }
  std::printf("# note: scores across variants are not directly comparable "
              "(different aggregates); compare the (IL, DR) landing zones.\n");
  return 0;
}
