// Reproduces Figures 13-14: German dataset, fitness Eq.2 (max) of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 13-14: German dataset, fitness Eq.2 (max)";
  spec.job = evocat::bench::BenchSpec(
      "german", evocat::metrics::ScoreAggregation::kMax, 2000);
  spec.paper_notes =
      "max 65.87->44.85 (31.91%), mean 40.76->33.42 (18.01%), min 29.18->28.05 (3.87%)";
  return evocat::bench::RunFigureBench(spec);
}
