// Consolidated paper-vs-measured table for every improvement percentage the
// paper quotes in §3.1 (fitness Eq. 1) and §3.2 (fitness Eq. 2): the max,
// mean and min population scores before and after evolution, for all four
// datasets. This is the single bench to read for the headline reproduction.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"

using namespace evocat;

namespace {

struct PaperRow {
  const char* dataset;
  metrics::ScoreAggregation aggregation;
  // Paper start/end values for max/mean/min (NaN-free; "no decrement" rows
  // repeat the start value).
  double max_start, max_end;
  double mean_start, mean_end;
  double min_start, min_end;
};

const std::vector<PaperRow>& PaperRows() {
  static const auto* rows = new std::vector<PaperRow>{
      {"adult", metrics::ScoreAggregation::kMean, 41.95, 36.60, 33.05, 31.78,
       29.68, 29.61},
      {"housing", metrics::ScoreAggregation::kMean, 36.96, 36.14, 29.79, 25.25,
       20.36, 20.12},
      {"german", metrics::ScoreAggregation::kMean, 36.59, 31.74, 29.37, 28.91,
       26.68, 26.54},
      {"flare", metrics::ScoreAggregation::kMean, 42.53, 33.56, 29.57, 28.13,
       31.77, 31.77},
      {"adult", metrics::ScoreAggregation::kMax, 72.19, 64.38, 47.05, 38.57,
       30.70, 30.28},
      {"housing", metrics::ScoreAggregation::kMax, 72.65, 69.63, 42.32, 30.12,
       29.18, 29.18},
      {"german", metrics::ScoreAggregation::kMax, 65.87, 44.85, 40.76, 33.42,
       29.18, 28.05},
      {"flare", metrics::ScoreAggregation::kMax, 76.17, 50.22, 44.83, 36.36,
       31.77, 31.63},
  };
  return *rows;
}

double Improvement(double start, double end) {
  return start > 0 ? 100.0 * (start - end) / start : 0.0;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  std::printf("# Improvement table: paper 3.1/3.2 in-text percentages vs "
              "measured (synthetic stand-in data; compare shapes, not "
              "absolutes)\n");
  std::printf(
      "series,dataset,aggregation,stat,paper_start,paper_end,paper_improve_pct,"
      "measured_start,measured_end,measured_improve_pct\n");

  for (const auto& row : PaperRows()) {
    auto result = api::Session().Run(
        bench::BenchSpec(row.dataset, row.aggregation, /*generations=*/2000));
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const api::RunArtifacts& run = result.ValueOrDie();
    const char* aggregation =
        metrics::ScoreAggregationToString(row.aggregation);
    auto print_stat = [&](const char* stat, double paper_start,
                          double paper_end, double measured_start,
                          double measured_end) {
      std::printf("improvement,%s,%s,%s,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
                  row.dataset, aggregation, stat, paper_start, paper_end,
                  Improvement(paper_start, paper_end), measured_start,
                  measured_end, Improvement(measured_start, measured_end));
    };
    print_stat("max", row.max_start, row.max_end, run.initial_scores.max,
               run.final_scores.max);
    print_stat("mean", row.mean_start, row.mean_end, run.initial_scores.mean,
               run.final_scores.mean);
    print_stat("min", row.min_start, row.min_end, run.initial_scores.min,
               run.final_scores.min);
  }
  std::printf("# shape checks: mean improves steadily in all rows; min barely "
              "moves; Eq.2 mean improvements exceed Eq.1's.\n");
  return 0;
}
