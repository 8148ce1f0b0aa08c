// Reproduces Figures 9-10: Adult dataset, fitness Eq.2 (max) of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 9-10: Adult dataset, fitness Eq.2 (max)";
  spec.job = evocat::bench::BenchSpec(
      "adult", evocat::metrics::ScoreAggregation::kMax, 2000);
  spec.paper_notes =
      "max 72.19->64.38 (10.82%), mean 47.05->38.57 (18.02%), min 30.70->30.28 (1.34%)";
  return evocat::bench::RunFigureBench(spec);
}
