// Reproduces Figures 11-12: Housing dataset, fitness Eq.2 (max) of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 11-12: Housing dataset, fitness Eq.2 (max)";
  spec.job = evocat::bench::BenchSpec(
      "housing", evocat::metrics::ScoreAggregation::kMax, 2000);
  spec.paper_notes =
      "max 72.65->69.63 (4.16%), mean 42.32->30.12 (28.83%), min no decrement";
  return evocat::bench::RunFigureBench(spec);
}
