// Reproduces Figures 5-6: German dataset, fitness Eq.1 (mean) of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 5-6: German dataset, fitness Eq.1 (mean)";
  spec.job = evocat::bench::BenchSpec(
      "german", evocat::metrics::ScoreAggregation::kMean, 2000);
  spec.paper_notes =
      "max 36.59->31.74 (13.25%), mean 29.37->28.91 (1.57%), min 26.68->26.54 (0.52%)";
  return evocat::bench::RunFigureBench(spec);
}
