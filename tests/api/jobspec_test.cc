#include "api/jobspec.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/registry.h"
#include "protection/registry.h"

namespace evocat {
namespace api {
namespace {

const char* kFullSpec = R"({
  "name": "full",
  "source": {
    "kind": "csv",
    "path": "data/original.csv",
    "has_header": true,
    "separator": ";",
    "ordinal_attributes": ["EDUCATION"]
  },
  "protected_attributes": ["EDUCATION", "MARITAL", "OCCUPATION"],
  "methods": [
    {"name": "microaggregation",
     "grid": {"k": [3, 5], "ordering": ["univariate", "sort0"]}},
    {"name": "pram", "grid": {"retain": [0.9, 0.5]}},
    {"name": "rankswapping"}
  ],
  "measures": {
    "aggregation": "weighted",
    "il_weight": 0.7,
    "enabled": ["CTBIL", "EBIL", "ID", "DBRL"],
    "ctbil_max_dimension": 3,
    "prl_em_iterations": 25
  },
  "ga": {
    "generations": 250,
    "mutation_rate": 0.4,
    "leader_group_size": 8,
    "selection": "rank",
    "mutation_excludes_current": false
  },
  "strategy": {
    "name": "islands",
    "params": {"islands": 4, "migration_interval": 10, "migrants": 2}
  },
  "remove_best_fraction": 0.05,
  "seeds": {"master": 99, "ga": 1234},
  "outputs": {"history": false, "best_csv_path": "/tmp/best.csv"}
})";

TEST(JobSpecParseTest, FullSpecParses) {
  JobSpec spec = JobSpec::FromJsonText(kFullSpec).ValueOrDie();
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.source.kind, SourceSpec::Kind::kCsv);
  EXPECT_EQ(spec.source.path, "data/original.csv");
  EXPECT_EQ(spec.source.separator, ";");
  ASSERT_EQ(spec.source.ordinal_attributes.size(), 1u);
  ASSERT_EQ(spec.protected_attributes.size(), 3u);
  ASSERT_EQ(spec.methods.size(), 3u);
  EXPECT_EQ(spec.methods[0].name, "microaggregation");
  ASSERT_EQ(spec.methods[0].grid.size(), 2u);
  EXPECT_EQ(spec.methods[0].grid[0].first, "k");
  EXPECT_EQ(spec.methods[0].grid[0].second,
            (std::vector<std::string>{"3", "5"}));
  EXPECT_EQ(spec.measures.aggregation, metrics::ScoreAggregation::kWeighted);
  EXPECT_DOUBLE_EQ(spec.measures.il_weight, 0.7);
  EXPECT_EQ(spec.measures.ctbil_max_dimension, 3);
  EXPECT_EQ(spec.ga.generations, 250);
  EXPECT_EQ(spec.ga.selection, core::SelectionStrategy::kRank);
  EXPECT_FALSE(spec.ga.mutation_excludes_current);
  EXPECT_EQ(spec.strategy.name, "islands");
  EXPECT_EQ(spec.strategy.params,
            (ParamMap{{"islands", "4"},
                      {"migration_interval", "10"},
                      {"migrants", "2"}}));
  EXPECT_DOUBLE_EQ(spec.remove_best_fraction, 0.05);
  EXPECT_EQ(spec.seeds.master, 99u);
  ASSERT_TRUE(spec.seeds.ga.has_value());
  EXPECT_EQ(*spec.seeds.ga, 1234u);
  EXPECT_FALSE(spec.seeds.data.has_value());
  EXPECT_FALSE(spec.outputs.history);
  EXPECT_EQ(spec.outputs.best_csv_path, "/tmp/best.csv");
}

TEST(JobSpecParseTest, JsonRoundTripIsIdentical) {
  JobSpec spec = JobSpec::FromJsonText(kFullSpec).ValueOrDie();
  std::string first = spec.ToJsonText();
  JobSpec reparsed = JobSpec::FromJsonText(first).ValueOrDie();
  std::string second = reparsed.ToJsonText();
  EXPECT_EQ(first, second);
}

TEST(JobSpecParseTest, DefaultsRoundTrip) {
  JobSpec defaults;
  JobSpec reparsed = JobSpec::FromJsonText(defaults.ToJsonText()).ValueOrDie();
  EXPECT_EQ(reparsed.ToJsonText(), defaults.ToJsonText());
}

TEST(JobSpecParseTest, RetiredGaKeysAcceptOnlyTrue) {
  // Specs dumped before the schedule keys were retired carry both as true;
  // they must parse to the same spec as one without them, and the keys are
  // no longer written back.
  const std::string without = R"({"ga": {"generations": 7}})";
  const std::string with_true = R"({"ga": {"generations": 7,
      "parallel_offspring_eval": true, "incremental_eval": true}})";
  std::string expected =
      JobSpec::FromJsonText(without).ValueOrDie().ToJsonText();
  EXPECT_EQ(JobSpec::FromJsonText(with_true).ValueOrDie().ToJsonText(),
            expected);
  EXPECT_EQ(expected.find("incremental_eval"), std::string::npos);
  EXPECT_EQ(expected.find("parallel_offspring_eval"), std::string::npos);

  for (std::string key : {"incremental_eval", "parallel_offspring_eval"}) {
    auto result =
        JobSpec::FromJsonText(R"({"ga": {")" + key + R"(": false}})");
    ASSERT_FALSE(result.ok()) << key;
    EXPECT_NE(result.status().message().find("ga." + key), std::string::npos)
        << result.status().ToString();
  }
}

TEST(JobSpecParseTest, RetiredFitnessBlockAcceptsOnlyDefaults) {
  // Specs dumped before the rebuild-fraction knobs were retired carry
  // `"fitness": {"delta_rebuild_fraction": 0}`. Each key still parses with
  // the value that selects what every run now does, to the same spec as no
  // block, and the block is no longer written back.
  const std::string without = R"({"ga": {"generations": 7}})";
  std::string expected =
      JobSpec::FromJsonText(without).ValueOrDie().ToJsonText();
  EXPECT_EQ(expected.find("\"fitness\""), std::string::npos);
  for (std::string field : {R"("delta_rebuild_fraction": 0)",
                            R"("probe_rebuild_fractions": false)",
                            R"("rebuild_fractions": {})"}) {
    auto result = JobSpec::FromJsonText(
        R"({"ga": {"generations": 7}, "fitness": {)" + field + "}}");
    ASSERT_TRUE(result.ok()) << field << ": " << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().ToJsonText(), expected) << field;
  }

  // Any other value selected an override that no longer exists.
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"delta_rebuild_fraction", "0.3"},
           {"probe_rebuild_fractions", "true"},
           {"rebuild_fractions", R"({"DBRL": 0.2})"}}) {
    auto result = JobSpec::FromJsonText(R"({"fitness": {")" + key +
                                        R"(": )" + value + "}}");
    ASSERT_FALSE(result.ok()) << key;
    EXPECT_NE(result.status().message().find("fitness." + key),
              std::string::npos)
        << result.status().ToString();
  }

  auto unknown_key =
      JobSpec::FromJsonText(R"({"fitness": {"rebuild_cells": 10}})");
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_NE(unknown_key.status().message().find(
                "unknown field 'fitness.rebuild_cells'"),
            std::string::npos)
      << unknown_key.status().ToString();
}

TEST(JobSpecParseTest, UnknownTopLevelFieldIsNamed) {
  auto result = JobSpec::FromJsonText(R"({"nmae": "typo"})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("nmae"), std::string::npos)
      << result.status().ToString();
}

TEST(JobSpecParseTest, UnknownNestedFieldIsNamedWithPath) {
  auto result = JobSpec::FromJsonText(R"({"ga": {"generatons": 5}})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("ga.generatons"), std::string::npos)
      << result.status().ToString();
}

TEST(JobSpecParseTest, BadEnumNamesField) {
  auto aggregation =
      JobSpec::FromJsonText(R"({"measures": {"aggregation": "avg"}})");
  ASSERT_FALSE(aggregation.ok());
  EXPECT_NE(aggregation.status().message().find("measures.aggregation"),
            std::string::npos)
      << aggregation.status().ToString();

  auto selection = JobSpec::FromJsonText(R"({"ga": {"selection": "best"}})");
  ASSERT_FALSE(selection.ok());
  EXPECT_NE(selection.status().message().find("ga.selection"),
            std::string::npos);

  auto kind = JobSpec::FromJsonText(R"({"source": {"kind": "sql"}})");
  ASSERT_FALSE(kind.ok());
  EXPECT_NE(kind.status().message().find("source.kind"), std::string::npos);
}

TEST(JobSpecParseTest, TypeErrorsNameField) {
  auto result = JobSpec::FromJsonText(R"({"ga": {"generations": "many"}})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("ga.generations"),
            std::string::npos);
}

TEST(JobSpecValidateTest, CsvRequiresPathAndAttributes) {
  auto missing_path = JobSpec::FromJsonText(R"({"source": {"kind": "csv"}})");
  ASSERT_FALSE(missing_path.ok());
  EXPECT_NE(missing_path.status().message().find("source.path"),
            std::string::npos);

  auto missing_attrs = JobSpec::FromJsonText(
      R"({"source": {"kind": "csv", "path": "x.csv"}})");
  ASSERT_FALSE(missing_attrs.ok());
  EXPECT_NE(missing_attrs.status().message().find("protected_attributes"),
            std::string::npos);
}

TEST(JobSpecValidateTest, CsvFieldsOnSyntheticSourceAreRejected) {
  // Forgetting "kind": "csv" must not silently run on synthetic data.
  auto result = JobSpec::FromJsonText(
      R"({"source": {"path": "census.csv"},
          "protected_attributes": ["EDUCATION"]})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("source.path"), std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("csv"), std::string::npos);

  auto separator =
      JobSpec::FromJsonText(R"({"source": {"separator": ";"}})");
  ASSERT_FALSE(separator.ok());
  EXPECT_NE(separator.status().message().find("source.separator"),
            std::string::npos);

  // And symmetrically: synthetic-only fields on a csv source.
  auto case_on_csv = JobSpec::FromJsonText(
      R"({"source": {"kind": "csv", "path": "x.csv", "case": "german"},
          "protected_attributes": ["A"]})");
  ASSERT_FALSE(case_on_csv.ok());
  EXPECT_NE(case_on_csv.status().message().find("source.case"),
            std::string::npos)
      << case_on_csv.status().ToString();
}

TEST(JobSpecValidateTest, UnknownMethodAndMeasureAreNamed) {
  auto method = JobSpec::FromJsonText(R"({"methods": [{"name": "noise"}]})");
  ASSERT_FALSE(method.ok());
  EXPECT_NE(method.status().message().find("methods[0].name"),
            std::string::npos);

  auto measure =
      JobSpec::FromJsonText(R"({"measures": {"enabled": ["CTBIL", "XIL"]}})");
  ASSERT_FALSE(measure.ok());
  EXPECT_NE(measure.status().message().find("measures.enabled[1]"),
            std::string::npos);
}

TEST(JobSpecValidateTest, BadMethodParameterIsNamed) {
  auto result = JobSpec::FromJsonText(
      R"({"methods": [{"name": "pram", "grid": {"retian": [0.5]}}]})");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("pram.retian"), std::string::npos)
      << result.status().ToString();
}

TEST(JobSpecValidateTest, StrategyErrorsAreNamed) {
  // Unknown strategy name, with the known names listed.
  auto unknown =
      JobSpec::FromJsonText(R"({"strategy": {"name": "annealing"}})");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("strategy.name"),
            std::string::npos)
      << unknown.status().ToString();
  EXPECT_NE(unknown.status().message().find("steady_state"),
            std::string::npos);

  // Unknown parameter key surfaces at validation, not mid-run.
  auto bad_key = JobSpec::FromJsonText(
      R"({"strategy": {"name": "steady_state", "params": {"mu": 4}}})");
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.status().message().find("steady_state.mu"),
            std::string::npos)
      << bad_key.status().ToString();

  // Out-of-range value.
  auto bad_value = JobSpec::FromJsonText(
      R"({"strategy": {"name": "islands", "params": {"islands": 0}}})");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("islands"), std::string::npos);

  // Unknown field inside the strategy object itself.
  auto bad_field = JobSpec::FromJsonText(
      R"({"strategy": {"nmae": "islands"}})");
  ASSERT_FALSE(bad_field.ok());
  EXPECT_NE(bad_field.status().message().find("strategy.nmae"),
            std::string::npos);
}

TEST(JobSpecParseTest, StrategyDefaultsToGenerational) {
  JobSpec spec = JobSpec::FromJsonText(R"({"name": "plain"})").ValueOrDie();
  EXPECT_EQ(spec.strategy.name, "generational");
  EXPECT_TRUE(spec.strategy.params.empty());
}

TEST(JobSpecValidateTest, NeedsBothMeasureKinds) {
  auto il_only =
      JobSpec::FromJsonText(R"({"measures": {"enabled": ["CTBIL", "DBIL"]}})");
  ASSERT_FALSE(il_only.ok());
  EXPECT_NE(il_only.status().message().find("disclosure-risk"),
            std::string::npos);

  auto dr_only =
      JobSpec::FromJsonText(R"({"measures": {"enabled": ["ID", "PRL"]}})");
  ASSERT_FALSE(dr_only.ok());
  EXPECT_NE(dr_only.status().message().find("information-loss"),
            std::string::npos);
}

TEST(JobSpecValidateTest, MeasureParameterRangesAreNamed) {
  // Out-of-range measure parameters fail at validation (the registry
  // factories' checks), naming the measure and the parameter, instead of
  // failing the job when the evaluator binds.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"measures": {"ctbil_max_dimension": 0}})", "CTBIL.max_dimension"},
      {R"({"measures": {"rsrl_assumed_p_percent": 0}})",
       "RSRL.assumed_p_percent"},
      {R"({"measures": {"id_window_percent": -5}})", "ID.window_percent"},
      {R"({"measures": {"prl_em_iterations": -3}})", "PRL.em_iterations"},
      {R"({"measures": {"prl_em_iterations": 0}})", "PRL.em_iterations"},
  };
  for (const auto& [json, field] : cases) {
    auto spec = JobSpec::FromJsonText(json);
    ASSERT_FALSE(spec.ok()) << json;
    EXPECT_NE(spec.status().message().find(field), std::string::npos)
        << spec.status().ToString();
  }
}

TEST(JobSpecParseTest, LegacyMeasuresRebuildFractionAliasIsRejected) {
  // Only the retired fitness block still parses the rebuild knob (at its
  // default); the older measures.* spelling is an unknown field like any
  // other.
  auto legacy = JobSpec::FromJsonText(
      R"({"measures": {"delta_rebuild_fraction": 0.25}})");
  ASSERT_FALSE(legacy.ok());
  EXPECT_NE(legacy.status().message().find(
                "unknown field 'measures.delta_rebuild_fraction'"),
            std::string::npos)
      << legacy.status().ToString();
}

TEST(JobSpecTest, FitnessOptionsReflectToggles) {
  JobSpec spec = JobSpec::FromJsonText(kFullSpec).ValueOrDie();
  metrics::FitnessEvaluator::Options options = spec.FitnessOptions();
  EXPECT_TRUE(options.use_ctbil);
  EXPECT_FALSE(options.use_dbil);
  EXPECT_TRUE(options.use_ebil);
  EXPECT_TRUE(options.use_id);
  EXPECT_TRUE(options.use_dbrl);
  EXPECT_FALSE(options.use_prl);
  EXPECT_FALSE(options.use_rsrl);
  EXPECT_EQ(options.aggregation, metrics::ScoreAggregation::kWeighted);
  EXPECT_EQ(options.ctbil_max_dimension, 3);
  EXPECT_EQ(options.prl_em_iterations, 25);
}

TEST(JobSpecTest, ExpandGridCrossProductFirstKeyOutermost) {
  MethodGridSpec method;
  method.name = "microaggregation";
  method.grid = {{"k", {"3", "5"}}, {"ordering", {"univariate", "sort0"}}};
  std::vector<ParamMap> combos = ExpandGrid(method);
  ASSERT_EQ(combos.size(), 4u);
  EXPECT_EQ(combos[0].at("k"), "3");
  EXPECT_EQ(combos[0].at("ordering"), "univariate");
  EXPECT_EQ(combos[1].at("k"), "3");
  EXPECT_EQ(combos[1].at("ordering"), "sort0");
  EXPECT_EQ(combos[2].at("k"), "5");
  EXPECT_EQ(combos[3].at("ordering"), "sort0");

  MethodGridSpec gridless;
  gridless.name = "dbrl";
  EXPECT_EQ(ExpandGrid(gridless).size(), 1u);
  EXPECT_TRUE(ExpandGrid(gridless)[0].empty());
}

TEST(JobSpecTest, SeedDerivationIsStable) {
  SeedSpec seeds;
  seeds.master = 7;
  uint64_t data = seeds.DataSeed();
  uint64_t protection = seeds.ProtectionSeed();
  uint64_t ga = seeds.GaSeed();
  EXPECT_NE(data, protection);
  EXPECT_NE(protection, ga);
  // Pinning one stage never changes the others.
  seeds.protection = 123;
  EXPECT_EQ(seeds.DataSeed(), data);
  EXPECT_EQ(seeds.GaSeed(), ga);
  // MakeExplicit pins the effective values.
  seeds.MakeExplicit();
  EXPECT_EQ(*seeds.data, data);
  EXPECT_EQ(*seeds.protection, 123u);
  EXPECT_EQ(*seeds.ga, ga);
}

TEST(MethodRegistryTest, AllBuiltInMethodsConstructibleByName) {
  auto& registry = protection::MethodRegistry::Global();
  const std::vector<std::string> expected = {
      "bottomcoding",     "globalrecoding", "hierarchicalrecoding",
      "microaggregation", "pram",           "rankswapping",
      "topcoding"};
  EXPECT_EQ(registry.Names(), expected);
  for (const std::string& name : expected) {
    auto method = registry.Create(name);
    ASSERT_TRUE(method.ok()) << name << ": " << method.status().ToString();
    EXPECT_EQ(method.ValueOrDie()->Name(), name);
  }
  // Lookup is case-insensitive; unknown names list what exists.
  EXPECT_TRUE(registry.Create("PRAM").ok());
  auto unknown = registry.Create("noise");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("microaggregation"),
            std::string::npos);
}

TEST(MethodRegistryTest, FactoriesApplyParameters) {
  auto& registry = protection::MethodRegistry::Global();
  auto micro = registry.Create(
      "microaggregation", {{"k", "7"}, {"ordering", "sum"}});
  ASSERT_TRUE(micro.ok());
  EXPECT_EQ(micro.ValueOrDie()->Params(), "k=7,order=sum");

  auto bad_value = registry.Create("microaggregation", {{"k", "lots"}});
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("microaggregation.k"),
            std::string::npos);

  auto bad_key = registry.Create("pram", {{"retention", "0.5"}});
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.status().message().find("pram.retention"),
            std::string::npos);
}

TEST(MeasureRegistryTest, AllBuiltInMeasuresConstructibleByName) {
  auto& registry = metrics::MeasureRegistry::Global();
  const std::vector<std::string> expected = {"CTBIL", "DBIL", "DBRL", "EBIL",
                                             "ID",    "PRL",  "RSRL"};
  EXPECT_EQ(registry.Names(), expected);
  int il = 0, dr = 0;
  for (const std::string& name : expected) {
    auto measure = registry.Create(name);
    ASSERT_TRUE(measure.ok()) << name << ": " << measure.status().ToString();
    EXPECT_EQ(measure.ValueOrDie()->Name(), name);
    (measure.ValueOrDie()->Kind() == metrics::MeasureKind::kInformationLoss
         ? il
         : dr) += 1;
  }
  EXPECT_EQ(il, 3);
  EXPECT_EQ(dr, 4);
  EXPECT_TRUE(registry.Create("ctbil").ok());
  EXPECT_FALSE(registry.Create("XIL").ok());
}

}  // namespace
}  // namespace api
}  // namespace evocat
