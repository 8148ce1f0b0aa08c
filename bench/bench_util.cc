#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "common/logging.h"
#include "common/string_utils.h"
#include "common/timer.h"
#include "experiments/pareto.h"
#include "experiments/report.h"
#include "experiments/svg_plot.h"

namespace evocat {
namespace bench {

api::JobSpec BenchSpec(const std::string& case_name,
                       metrics::ScoreAggregation aggregation, int generations) {
  api::JobSpec spec;
  spec.source.case_name = case_name;
  spec.measures.aggregation = aggregation;
  spec.ga.generations = generations;
  spec.seeds.data = 0xDA7A;
  spec.seeds.protection = 0x9A5C;
  spec.seeds.ga = 42;
  return spec;
}

Status WriteJsonFile(const std::string& path, const api::JsonValue& json) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open '", path, "' for writing");
  }
  out << json.Dump(2) << "\n";
  out.close();  // surface buffered write errors before reporting success
  return out.fail() ? Status::Internal("short write to '", path, "'")
                    : Status::OK();
}

api::JsonValue EngineThroughputJson(const api::RunArtifacts& run) {
  using api::JsonValue;
  const auto& stats = run.stats;
  int64_t generations = static_cast<int64_t>(run.history.size());
  double gen_seconds =
      stats.mutation_total_seconds + stats.crossover_total_seconds;
  double eval_seconds =
      stats.mutation_eval_seconds + stats.crossover_eval_seconds;
  JsonValue json = JsonValue::MakeObject();
  json.Set("generations", JsonValue::MakeInt(generations));
  json.Set("offspring_evaluated",
           JsonValue::MakeInt(stats.offspring_evaluated));
  json.Set("generations_per_sec",
           JsonValue::MakeNumber(
               gen_seconds > 0 ? static_cast<double>(generations) / gen_seconds
                               : 0.0));
  json.Set("evaluations_per_sec",
           JsonValue::MakeNumber(
               eval_seconds > 0
                   ? static_cast<double>(stats.offspring_evaluated) /
                         eval_seconds
                   : 0.0));
  json.Set("initial_eval_seconds",
           JsonValue::MakeNumber(stats.initial_eval_seconds));
  json.Set("mutation_eval_seconds",
           JsonValue::MakeNumber(stats.mutation_eval_seconds));
  json.Set("crossover_eval_seconds",
           JsonValue::MakeNumber(stats.crossover_eval_seconds));
  json.Set("total_seconds", JsonValue::MakeNumber(stats.total_seconds));
  json.Set("final_min_score", JsonValue::MakeNumber(run.final_scores.min));
  json.Set("final_mean_score", JsonValue::MakeNumber(run.final_scores.mean));
  return json;
}

int RunFigureBench(const FigureSpec& spec) {
  SetLogLevel(LogLevel::kWarning);
  const api::JobSpec& job = spec.job;
  const char* aggregation =
      metrics::ScoreAggregationToString(job.measures.aggregation);
  std::printf("# %s\n", spec.title.c_str());
  std::printf("# dataset=%s aggregation=%s generations=%d",
              job.source.case_name.c_str(), aggregation, job.ga.generations);
  if (job.remove_best_fraction > 0) {
    std::printf(" remove_best=%.0f%%", job.remove_best_fraction * 100);
  }
  std::printf("\n");
  if (!spec.paper_notes.empty()) {
    std::printf("# paper: %s\n", spec.paper_notes.c_str());
  }

  Timer timer;
  auto result = api::Session().Run(job);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  const api::RunArtifacts& run = result.ValueOrDie();

  experiments::PrintDispersionCsv(run, std::cout);
  experiments::PrintEvolutionCsv(run, std::cout);
  std::printf("# measured:\n");
  experiments::PrintImprovementSummary(run, std::cout);

  // Multi-objective view of the dispersion clouds: the final front should
  // dominate more area than the initial one.
  auto initial_pareto = experiments::AnalyzePareto(run.initial);
  auto final_pareto = experiments::AnalyzePareto(run.final_population);
  std::printf("pareto,initial,front=%zu,hypervolume=%.4f\n",
              initial_pareto.front.size(), initial_pareto.hypervolume);
  std::printf("pareto,final,front=%zu,hypervolume=%.4f\n",
              final_pareto.front.size(), final_pareto.hypervolume);

  // Optional: render the actual figures (paper-style SVGs).
  if (const char* svg_dir = std::getenv("EVOCAT_SVG_DIR")) {
    std::string stem = job.source.case_name + "_" + aggregation;
    if (job.remove_best_fraction > 0) {
      stem += StrFormat("_rob%.0f", job.remove_best_fraction * 100);
    }
    Status svg_status =
        experiments::WriteFigureSvgs(run, spec.title, svg_dir, stem);
    if (!svg_status.ok()) {
      std::cerr << svg_status.ToString() << "\n";
    } else {
      std::printf("# svg figures written to %s/%s_*.svg\n", svg_dir,
                  stem.c_str());
    }
  }

  std::printf("# wall_time_s=%.2f\n", timer.ElapsedSeconds());
  return 0;
}

}  // namespace bench
}  // namespace evocat
