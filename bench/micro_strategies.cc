// micro_strategies — evolution-strategy throughput and convergence.
//
// Runs the same job under the three registered strategies (generational,
// steady_state lambda=8, islands 4x ring) on two scenarios:
//
//   uniform: flat marginals, uncorrelated attributes — the easy landscape;
//   skewed:  zipf-heavy marginals with latent correlation — the landscape
//            the paper's datasets actually look like.
//
// For each (scenario, strategy) pair it reports wall seconds, generations
// executed (summed across islands), generations/sec, fitness evaluations
// served, and the best score reached — i.e. both the throughput axis and
// the best-fitness-vs-evaluations axis. Every strategy is also run twice
// to confirm determinism (bit-identical best files), which is a hard
// failure when violated.
//
// The islands strategy evolves its 4 subpopulations concurrently on the
// worker pool, so its generations/sec approaches 4x generational on >= 4
// hardware threads; on a single hardware thread all strategies degenerate
// to the same serial schedule (speedup ~1.0).
//
// Writes every number to BENCH_strategies.json. `--quick` shrinks the
// generation budget for CI smoke runs.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "bench_util.h"
#include "common/timer.h"
#include "datagen/profile.h"

using namespace evocat;
using api::JsonValue;

namespace {

struct StrategyRun {
  std::string label;
  api::StrategySpec strategy;
};

struct Measured {
  /// Whole-job wall time (source + seed protections + evolution).
  double job_seconds = 0.0;
  /// Evolution-only wall time — the fair basis for generations/sec (the
  /// seeding stages are identical across strategies).
  double evolve_seconds = 0.0;
  int64_t generations = 0;
  double generations_per_sec = 0.0;
  int64_t evaluations = 0;
  double best_score = 0.0;
};

datagen::SyntheticProfile SkewedProfile(int64_t records) {
  auto profile = datagen::UniformTestProfile("skewed", records, {12, 9, 15});
  for (auto& attr : profile.attributes) {
    attr.zipf_s = 1.1;
    attr.latent_weight = 0.5;
  }
  return profile;
}

/// Runs one (scenario, strategy) pair twice; fails (nullptr artifacts) on
/// error or on a determinism violation between the two runs.
bool RunPair(api::Session* session, const api::JobSpec& base,
             const StrategyRun& run, Measured* out) {
  api::JobSpec spec = base;
  spec.name = base.name + "-" + run.label;
  spec.strategy = run.strategy;

  Timer timer;
  auto first = session->Run(spec);
  double seconds = timer.ElapsedSeconds();
  if (!first.ok()) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                 first.status().ToString().c_str());
    return false;
  }
  auto second = session->Run(spec);
  if (!second.ok()) {
    std::fprintf(stderr, "%s (rerun): %s\n", spec.name.c_str(),
                 second.status().ToString().c_str());
    return false;
  }
  const api::RunArtifacts& a = first.ValueOrDie();
  const api::RunArtifacts& b = second.ValueOrDie();
  if (!a.best_data.SameCodes(b.best_data)) {
    std::fprintf(stderr, "%s: NOT deterministic across reruns\n",
                 spec.name.c_str());
    return false;
  }

  out->job_seconds = seconds;
  out->evolve_seconds = a.stats.total_seconds;
  out->generations =
      a.stats.mutation_generations + a.stats.crossover_generations;
  out->generations_per_sec =
      out->evolve_seconds > 0
          ? static_cast<double>(out->generations) / out->evolve_seconds
          : 0.0;
  out->evaluations = a.evaluations;
  out->best_score = a.best.fitness.score;
  return true;
}

JsonValue MeasuredJson(const Measured& m) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("job_seconds", JsonValue::MakeNumber(m.job_seconds));
  json.Set("evolve_seconds", JsonValue::MakeNumber(m.evolve_seconds));
  json.Set("generations", JsonValue::MakeInt(m.generations));
  json.Set("generations_per_sec", JsonValue::MakeNumber(m.generations_per_sec));
  json.Set("evaluations", JsonValue::MakeInt(m.evaluations));
  json.Set("best_score", JsonValue::MakeNumber(m.best_score));
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int generations = quick ? 40 : 300;
  const int64_t records = quick ? 150 : 400;
  const int threads = static_cast<int>(std::thread::hardware_concurrency());

  std::vector<StrategyRun> runs(3);
  runs[0].label = "generational";
  runs[0].strategy.name = "generational";
  runs[1].label = "steady_state";
  runs[1].strategy.name = "steady_state";
  runs[1].strategy.params = {{"lambda", "8"}};
  runs[2].label = "islands";
  runs[2].strategy.name = "islands";
  runs[2].strategy.params = {{"islands", "4"},
                             {"migration_interval",
                              std::to_string(std::max(1, generations / 8))}};

  struct Scenario {
    std::string name;
    datagen::SyntheticProfile profile;
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"uniform", datagen::UniformTestProfile("uniform", records, {9, 7, 11})});
  scenarios.push_back({"skewed", SkewedProfile(records)});

  api::Session session;
  JsonValue summary = JsonValue::MakeObject();
  summary.Set("hardware_threads", JsonValue::MakeInt(threads));
  summary.Set("quick", JsonValue::MakeInt(quick ? 1 : 0));
  summary.Set("generations_budget", JsonValue::MakeInt(generations));

  std::printf("strategies bench: %d generations/island, %lld records, "
              "%d hardware threads\n",
              generations, static_cast<long long>(records), threads);

  for (const Scenario& scenario : scenarios) {
    api::JobSpec base;
    base.name = scenario.name;
    base.source.kind = api::SourceSpec::Kind::kSynthetic;
    base.source.has_inline_profile = true;
    base.source.profile = scenario.profile;
    base.ga.generations = generations;
    base.seeds.master = 1234;
    base.outputs.initial_population = false;
    base.outputs.final_population = false;
    base.outputs.history = false;

    JsonValue scenario_json = JsonValue::MakeObject();
    double generational_gps = 0.0;
    double islands_gps = 0.0;
    std::printf("--- scenario: %s ---\n", scenario.name.c_str());
    for (const StrategyRun& run : runs) {
      Measured measured;
      if (!RunPair(&session, base, run, &measured)) return 1;
      std::printf("%-13s %6.2fs  %5lld gens  %7.1f gens/s  %6lld evals  "
                  "best=%.3f\n",
                  run.label.c_str(), measured.evolve_seconds,
                  static_cast<long long>(measured.generations),
                  measured.generations_per_sec,
                  static_cast<long long>(measured.evaluations),
                  measured.best_score);
      scenario_json.Set(run.label, MeasuredJson(measured));
      if (run.label == "generational") {
        generational_gps = measured.generations_per_sec;
      }
      if (run.label == "islands") islands_gps = measured.generations_per_sec;
    }
    double speedup =
        generational_gps > 0 ? islands_gps / generational_gps : 0.0;
    scenario_json.Set("islands_speedup_vs_generational",
                      JsonValue::MakeNumber(speedup));
    std::printf("islands generations/sec speedup vs generational: %.2fx%s\n",
                speedup,
                threads < 4 ? "  (bounded by hardware threads; expect >=2x "
                              "with 4+ cores)"
                            : "");
    summary.Set(scenario.name, std::move(scenario_json));
  }

  Status status = bench::WriteJsonFile("BENCH_strategies.json", summary);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_strategies.json\n");
  return 0;
}
