// Reproduces Figures 7-8: Flare dataset, fitness Eq.1 (mean) of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 7-8: Flare dataset, fitness Eq.1 (mean)";
  spec.job = evocat::bench::BenchSpec(
      "flare", evocat::metrics::ScoreAggregation::kMean, 2000);
  spec.paper_notes =
      "max 42.53->33.56 (21.09%), mean 29.57->28.13 (4.87%), min no decrement";
  return evocat::bench::RunFigureBench(spec);
}
