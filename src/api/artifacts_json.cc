#include "api/artifacts_json.h"

#include <sstream>

#include "data/csv.h"

namespace evocat {
namespace api {

namespace {

JsonValue ScoreStatsToJson(const ScoreStats& stats) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("min", JsonValue::MakeNumber(stats.min));
  json.Set("mean", JsonValue::MakeNumber(stats.mean));
  json.Set("max", JsonValue::MakeNumber(stats.max));
  return json;
}

JsonValue BreakdownToJson(const metrics::FitnessBreakdown& fitness) {
  JsonValue json = JsonValue::MakeObject();
  for (const metrics::FitnessMeasure& measure : metrics::FitnessMeasures()) {
    json.Set(measure.key, JsonValue::MakeNumber(fitness.*measure.field));
  }
  json.Set("il", JsonValue::MakeNumber(fitness.il));
  json.Set("dr", JsonValue::MakeNumber(fitness.dr));
  json.Set("score", JsonValue::MakeNumber(fitness.score));
  return json;
}

JsonValue MemberToJson(const MemberSummary& member) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("origin", JsonValue::MakeString(member.origin));
  json.Set("fitness", BreakdownToJson(member.fitness));
  return json;
}

JsonValue MembersToJson(const std::vector<MemberSummary>& members) {
  JsonValue array = JsonValue::MakeArray();
  for (const MemberSummary& member : members) {
    array.Append(MemberToJson(member));
  }
  return array;
}

JsonValue HistoryToJson(const std::vector<core::GenerationRecord>& history) {
  JsonValue array = JsonValue::MakeArray();
  for (const core::GenerationRecord& record : history) {
    JsonValue json = JsonValue::MakeObject();
    json.Set("generation", JsonValue::MakeInt(record.generation));
    json.Set("island", JsonValue::MakeInt(record.island));
    json.Set("op",
             JsonValue::MakeString(core::OperatorKindToString(record.op)));
    json.Set("min_score", JsonValue::MakeNumber(record.min_score));
    json.Set("mean_score", JsonValue::MakeNumber(record.mean_score));
    json.Set("max_score", JsonValue::MakeNumber(record.max_score));
    json.Set("evaluations", JsonValue::MakeInt(record.evaluations));
    json.Set("accepted", JsonValue::MakeBool(record.accepted));
    json.Set("eval_seconds", JsonValue::MakeNumber(record.eval_seconds));
    json.Set("total_seconds", JsonValue::MakeNumber(record.total_seconds));
    array.Append(std::move(json));
  }
  return array;
}

JsonValue StatsToJson(const core::EvolutionStats& stats) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("mutation_generations",
           JsonValue::MakeInt(stats.mutation_generations));
  json.Set("crossover_generations",
           JsonValue::MakeInt(stats.crossover_generations));
  json.Set("accepted_mutations", JsonValue::MakeInt(stats.accepted_mutations));
  json.Set("accepted_crossovers",
           JsonValue::MakeInt(stats.accepted_crossovers));
  json.Set("offspring_evaluated",
           JsonValue::MakeInt(stats.offspring_evaluated));
  json.Set("mutation_eval_seconds",
           JsonValue::MakeNumber(stats.mutation_eval_seconds));
  json.Set("crossover_eval_seconds",
           JsonValue::MakeNumber(stats.crossover_eval_seconds));
  json.Set("mutation_total_seconds",
           JsonValue::MakeNumber(stats.mutation_total_seconds));
  json.Set("crossover_total_seconds",
           JsonValue::MakeNumber(stats.crossover_total_seconds));
  json.Set("initial_eval_seconds",
           JsonValue::MakeNumber(stats.initial_eval_seconds));
  json.Set("total_seconds", JsonValue::MakeNumber(stats.total_seconds));
  return json;
}

JsonValue TelemetryToJson(const TelemetryArtifacts& telemetry) {
  JsonValue json = JsonValue::MakeObject();
  JsonValue stages = JsonValue::MakeObject();
  stages.Set("load_seconds", JsonValue::MakeNumber(telemetry.load_seconds));
  stages.Set("protect_seconds",
             JsonValue::MakeNumber(telemetry.protect_seconds));
  stages.Set("bind_seconds", JsonValue::MakeNumber(telemetry.bind_seconds));
  stages.Set("evolve_seconds",
             JsonValue::MakeNumber(telemetry.evolve_seconds));
  stages.Set("total_seconds", JsonValue::MakeNumber(telemetry.total_seconds));
  json.Set("stages", std::move(stages));
  JsonValue generation_seconds = JsonValue::MakeArray();
  for (double seconds : telemetry.generation_seconds) {
    generation_seconds.Append(JsonValue::MakeNumber(seconds));
  }
  json.Set("generation_seconds", std::move(generation_seconds));
  JsonValue eval_seconds = JsonValue::MakeArray();
  for (double seconds : telemetry.generation_eval_seconds) {
    eval_seconds.Append(JsonValue::MakeNumber(seconds));
  }
  json.Set("generation_eval_seconds", std::move(eval_seconds));
  JsonValue counters = JsonValue::MakeObject();
  for (const auto& counter : telemetry.counters) {
    counters.Set(counter.first, JsonValue::MakeInt(counter.second));
  }
  json.Set("counters", std::move(counters));
  return json;
}

}  // namespace

JsonValue ArtifactsToJson(const RunArtifacts& artifacts,
                          const ArtifactsJsonOptions& options) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("job_name", JsonValue::MakeString(artifacts.job_name));
  json.Set("dataset", JsonValue::MakeString(artifacts.dataset));
  json.Set("spec", artifacts.spec.ToJson());

  JsonValue attrs = JsonValue::MakeArray();
  for (int attr : artifacts.protected_attrs) {
    attrs.Append(JsonValue::MakeInt(attr));
  }
  json.Set("protected_attrs", std::move(attrs));
  json.Set("num_rows", JsonValue::MakeInt(artifacts.num_rows));
  json.Set("population_size", JsonValue::MakeInt(artifacts.population_size));

  json.Set("initial_scores", ScoreStatsToJson(artifacts.initial_scores));
  json.Set("final_scores", ScoreStatsToJson(artifacts.final_scores));
  json.Set("stats", StatsToJson(artifacts.stats));
  json.Set("best", MemberToJson(artifacts.best));
  json.Set("evaluations", JsonValue::MakeInt(artifacts.evaluations));

  // Empty vectors mean the spec's output toggles pruned them; mirror that by
  // omitting the keys rather than emitting noise arrays.
  if (!artifacts.initial.empty()) {
    json.Set("initial_population", MembersToJson(artifacts.initial));
  }
  if (!artifacts.final_population.empty()) {
    json.Set("final_population", MembersToJson(artifacts.final_population));
  }
  if (!artifacts.history.empty()) {
    json.Set("history", HistoryToJson(artifacts.history));
  }
  // Present iff `outputs.telemetry` was on — the off-vs-on oracle compares
  // artifacts minus this section.
  if (artifacts.telemetry.enabled) {
    json.Set("telemetry", TelemetryToJson(artifacts.telemetry));
  }

  if (options.include_best_csv) {
    std::ostringstream csv;
    // Streaming an in-memory dataset cannot fail; ignore the Status to keep
    // the serializer total.
    (void)WriteCsvStream(artifacts.best_data, csv);
    json.Set("best_csv", JsonValue::MakeString(csv.str()));
  }
  return json;
}

}  // namespace api
}  // namespace evocat
