// Reproduces Figures 18+20: Flare, Eq.2 (max), best 10% removed of Marés & Torra, PAIS/EDBT 2012.
// See docs/reproduction.md for every paper artifact and how to run it.

#include "bench_util.h"

int main() {
  evocat::bench::FigureSpec spec;
  spec.title = "Figures 18+20: Flare, Eq.2 (max), best 10% removed";
  spec.job = evocat::bench::BenchSpec(
      "flare", evocat::metrics::ScoreAggregation::kMax, 2000);
  spec.job.remove_best_fraction = 0.10;
  spec.paper_notes =
      "reaches min 32.71, 1.08 points above the full-population min (31.63)";
  return evocat::bench::RunFigureBench(spec);
}
