// Reproduces Figures 1-2: Adult dataset, fitness Eq.1 (mean) of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 1-2: Adult dataset, fitness Eq.1 (mean)";
  spec.job = evocat::bench::BenchSpec(
      "adult", evocat::metrics::ScoreAggregation::kMean, 2000);
  spec.paper_notes =
      "max 41.95->36.60 (12.75%), mean 33.05->31.78 (3.84%), min 29.68->29.61 (0.24%)";
  return evocat::bench::RunFigureBench(spec);
}
