#include "api/artifacts_json.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_utils.h"
#include "data/csv.h"
#include "metrics/registry.h"

namespace evocat {
namespace api {
namespace {

/// One tiny end-to-end run to serialize.
RunArtifacts TinyArtifacts() {
  JobSpec spec;
  spec.name = "json-run";
  spec.source.kind = SourceSpec::Kind::kSynthetic;
  spec.source.has_inline_profile = true;
  spec.source.profile.name = "tiny";
  spec.source.profile.num_records = 60;
  for (const char* name : {"a0", "a1", "a2"}) {
    datagen::SyntheticAttribute attribute;
    attribute.name = name;
    attribute.cardinality = 7;
    spec.source.profile.attributes.push_back(attribute);
  }
  spec.source.profile.protected_attributes = {"a0", "a1", "a2"};
  MethodGridSpec micro;
  micro.name = "microaggregation";
  micro.grid = {{"k", {"3", "6"}}};
  MethodGridSpec pram;
  pram.name = "pram";
  pram.grid = {{"retain", {"0.7", "0.4"}}};
  spec.methods = {micro, pram};
  spec.measures.prl_em_iterations = 10;
  spec.ga.generations = 10;
  spec.seeds.master = 77;
  Session session;
  return session.Run(spec).ValueOrDie();
}

TEST(ArtifactsJsonTest, DocumentRoundTripsThroughParser) {
  RunArtifacts artifacts = TinyArtifacts();
  JsonValue json = ArtifactsToJson(artifacts);

  // The dump must parse back; spot-check the load-bearing fields.
  JsonValue parsed = JsonValue::Parse(json.Dump(2)).ValueOrDie();
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.Find("job_name")->string_value(), "json-run");
  EXPECT_EQ(parsed.Find("dataset")->string_value(), "tiny");
  EXPECT_EQ(parsed.Find("num_rows")->int_value(), 60);
  EXPECT_EQ(parsed.Find("population_size")->int_value(), 4);
  EXPECT_EQ(parsed.Find("history")->size(), 10u);
  EXPECT_EQ(parsed.Find("initial_population")->size(), 4u);
  EXPECT_EQ(parsed.Find("final_population")->size(), 4u);
  ASSERT_NE(parsed.Find("best"), nullptr);
  EXPECT_DOUBLE_EQ(
      parsed.Find("best")->Find("fitness")->Find("score")->number_value(),
      artifacts.best.fitness.score);
  EXPECT_DOUBLE_EQ(parsed.Find("final_scores")->Find("min")->number_value(),
                   artifacts.final_scores.min);
}

TEST(ArtifactsJsonTest, EmbeddedSpecReproducesTheRun) {
  RunArtifacts artifacts = TinyArtifacts();
  JsonValue json = ArtifactsToJson(artifacts);
  // The "spec" member is the resolved spec; running it again is bit-identical.
  JobSpec replay = JobSpec::FromJson(*json.Find("spec")).ValueOrDie();
  Session session;
  RunArtifacts second = session.Run(replay).ValueOrDie();
  EXPECT_TRUE(second.best_data.SameCodes(artifacts.best_data));
  EXPECT_DOUBLE_EQ(second.final_scores.min, artifacts.final_scores.min);
}

TEST(ArtifactsJsonTest, BestCsvDecodesToTheBestDataset) {
  RunArtifacts artifacts = TinyArtifacts();
  JsonValue json = ArtifactsToJson(artifacts);
  ASSERT_NE(json.Find("best_csv"), nullptr);
  std::istringstream csv(json.Find("best_csv")->string_value());
  Dataset decoded = ReadCsvStream(csv).ValueOrDie();
  EXPECT_EQ(decoded.num_rows(), artifacts.best_data.num_rows());
  EXPECT_EQ(decoded.num_attributes(), artifacts.best_data.num_attributes());
}

TEST(ArtifactsJsonTest, BestCsvCanBeOmitted) {
  RunArtifacts artifacts = TinyArtifacts();
  ArtifactsJsonOptions options;
  options.include_best_csv = false;
  JsonValue json = ArtifactsToJson(artifacts, options);
  EXPECT_EQ(json.Find("best_csv"), nullptr);
  EXPECT_NE(json.Find("best"), nullptr);
}

TEST(ArtifactsJsonTest, PrunedArtifactsOmitPopulationKeys) {
  JobSpec spec;
  spec.source.kind = SourceSpec::Kind::kSynthetic;
  spec.source.case_name = "adult";
  spec.ga.generations = 0;
  spec.outputs.initial_population = false;
  spec.outputs.final_population = false;
  spec.outputs.history = false;
  // Trim the roster so the job stays fast.
  MethodGridSpec pram;
  pram.name = "pram";
  pram.grid = {{"retain", {"0.8", "0.5"}}};
  spec.methods = {pram};
  spec.measures.prl_em_iterations = 5;
  Session session;
  RunArtifacts artifacts = session.Run(spec).ValueOrDie();
  JsonValue json = ArtifactsToJson(artifacts);
  EXPECT_EQ(json.Find("initial_population"), nullptr);
  EXPECT_EQ(json.Find("final_population"), nullptr);
  EXPECT_EQ(json.Find("history"), nullptr);
  EXPECT_NE(json.Find("final_scores"), nullptr);
}

TEST(FitnessMeasuresTest, TableMatchesRegistryKindsAndArtifactKeys) {
  const std::vector<metrics::FitnessMeasure>& table =
      metrics::FitnessMeasures();
  ASSERT_EQ(table.size(), 7u);
  for (size_t i = 0; i < table.size(); ++i) {
    const metrics::FitnessMeasure& measure = table[i];
    EXPECT_EQ(measure.key, ToLower(measure.name));
    auto instance = metrics::MeasureRegistry::Global().Create(measure.name);
    ASSERT_TRUE(instance.ok()) << measure.name << " is not registered";
    // Fold order: the three information-loss measures, then the four
    // disclosure-risk measures.
    EXPECT_EQ(instance.ValueOrDie()->Kind(),
              i < 3 ? metrics::MeasureKind::kInformationLoss
                    : metrics::MeasureKind::kDisclosureRisk)
        << measure.name;
  }

  // Every breakdown in the artifacts lists the seven keys in table order,
  // then il, dr and score.
  RunArtifacts artifacts = TinyArtifacts();
  JsonValue json = ArtifactsToJson(artifacts);
  const JsonValue* fitness = json.Find("best")->Find("fitness");
  ASSERT_NE(fitness, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : fitness->members()) keys.push_back(key);
  std::vector<std::string> expected;
  for (const metrics::FitnessMeasure& measure : table) {
    expected.push_back(measure.key);
  }
  expected.insert(expected.end(), {"il", "dr", "score"});
  EXPECT_EQ(keys, expected);
}

}  // namespace
}  // namespace api
}  // namespace evocat
