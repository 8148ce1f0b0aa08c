// Reproduces Figures 3-4: Housing dataset, fitness Eq.1 (mean) of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 3-4: Housing dataset, fitness Eq.1 (mean)";
  spec.job = evocat::bench::BenchSpec(
      "housing", evocat::metrics::ScoreAggregation::kMean, 2000);
  spec.paper_notes =
      "max 36.96->36.14 (2.22%), mean 29.79->25.25 (15.24%), min 20.36->20.12 (1.18%)";
  return evocat::bench::RunFigureBench(spec);
}
