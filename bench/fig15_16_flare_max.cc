// Reproduces Figures 15-16: Flare dataset, fitness Eq.2 (max) of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 15-16: Flare dataset, fitness Eq.2 (max)";
  spec.job = evocat::bench::BenchSpec(
      "flare", evocat::metrics::ScoreAggregation::kMax, 2000);
  spec.paper_notes =
      "max 76.17->50.22 (34.07%), mean 44.83->36.36 (18.89%), min 31.77->31.63 (0.44%)";
  return evocat::bench::RunFigureBench(spec);
}
