// Robustness study: can the GA recover protections it was never given?
//
// The paper's §3.3 removes the best 5% / 10% of the initial Solar-Flare
// protections and shows the evolutionary search still reaches nearly the
// same best score — evidence that the GA synthesizes good protections
// rather than merely picking the best seed. This example reproduces that
// study and reports the gaps.
//
// Run:  ./build/example_robustness_study

#include <cstdio>
#include <iostream>

#include "api/session.h"
#include "common/logging.h"

using namespace evocat;

int main() {
  SetLogLevel(LogLevel::kWarning);

  std::printf("robustness study: Flare-like dataset, Eq.2 (max) fitness\n\n");
  std::printf("%-22s %12s %12s %12s\n", "population", "initial min",
              "final min", "gap to full");

  double full_min = 0.0;
  for (double fraction : {0.0, 0.05, 0.10}) {
    api::JobSpec spec;
    spec.source.case_name = "flare";
    spec.measures.aggregation = metrics::ScoreAggregation::kMax;
    spec.ga.generations = 1200;
    spec.remove_best_fraction = fraction;
    // Fixed stage seeds: every run starts from the same seed protections.
    spec.seeds.data = 0xDA7A;
    spec.seeds.protection = 0x9A5C;
    spec.seeds.ga = 42;
    auto result = api::Session().Run(spec);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const api::RunArtifacts& run = result.ValueOrDie();
    if (fraction == 0.0) full_min = run.final_scores.min;

    char label[64];
    std::snprintf(label, sizeof(label), "best %.0f%% removed", fraction * 100);
    std::printf("%-22s %12.2f %12.2f %12.2f\n",
                fraction == 0.0 ? "full population" : label,
                run.initial_scores.min, run.final_scores.min,
                run.final_scores.min - full_min);
  }

  std::printf("\npaper gaps: 1.33 (5%% removed), 1.08 (10%% removed) — the "
              "search recovers most of the removed elite's quality.\n");
  return 0;
}
