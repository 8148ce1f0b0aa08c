#include "experiments/runner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "experiments/report.h"

namespace evocat {
namespace experiments {
namespace {

// A trimmed experiment configuration that runs in well under a second.
ExperimentOptions FastOptions(metrics::ScoreAggregation aggregation) {
  ExperimentOptions options;
  options.aggregation = aggregation;
  options.generations = 15;
  options.ga_seed = 5;
  return options;
}

// A trimmed dataset case (small file, small population) for unit testing;
// full paper cases are exercised by the bench binaries.
DatasetCase TinyCase() {
  DatasetCase dataset_case;
  dataset_case.profile = datagen::UniformTestProfile("tiny", 80, {7, 5, 9});
  dataset_case.profile.attributes[0].kind = AttrKind::kOrdinal;
  for (auto& attr : dataset_case.profile.attributes) {
    attr.latent_weight = 0.4;
    attr.zipf_s = 0.5;
  }
  protection::PopulationSpec spec;
  spec.microagg_ks = {3, 6};
  spec.microagg_orderings = {protection::MicroOrdering::kUnivariate,
                             protection::MicroOrdering::kSortByAttr0};
  spec.bottom_fractions = {0.2};
  spec.top_fractions = {0.2};
  spec.recoding_group_sizes = {2};
  spec.rankswap_percents = {5, 15};
  spec.pram_retains = {0.7, 0.4};
  dataset_case.population_spec = spec;
  return dataset_case;
}

TEST(CaseRegistryTest, AllPaperCasesResolve) {
  for (const char* name : {"housing", "german", "flare", "adult"}) {
    auto dataset_case = CaseByName(name).ValueOrDie();
    EXPECT_EQ(dataset_case.profile.name, name);
    EXPECT_EQ(dataset_case.profile.protected_attributes.size(), 3u);
  }
  EXPECT_FALSE(CaseByName("nonexistent").ok());
  EXPECT_EQ(AllCases().size(), 4u);
}

TEST(CaseRegistryTest, PopulationSizesMatchPaper) {
  EXPECT_EQ(HousingCase().population_spec.TotalCount(), 110);
  EXPECT_EQ(GermanCase().population_spec.TotalCount(), 104);
  EXPECT_EQ(FlareCase().population_spec.TotalCount(), 104);
  EXPECT_EQ(AdultCase().population_spec.TotalCount(), 86);
}

TEST(RunnerTest, EndToEndProducesConsistentResult) {
  auto result =
      RunExperiment(TinyCase(), FastOptions(metrics::ScoreAggregation::kMean))
          .ValueOrDie();
  EXPECT_EQ(result.dataset, "tiny");
  EXPECT_EQ(result.initial.size(), 11u);  // trimmed spec: 4+1+1+1+2+2
  EXPECT_EQ(result.final_population.size(), result.initial.size());
  EXPECT_EQ(result.history.size(), 15u);

  // Scores sorted / sane.
  EXPECT_LE(result.initial_scores.min, result.initial_scores.mean);
  EXPECT_LE(result.initial_scores.mean, result.initial_scores.max);
  // GA never worsens min/mean under elitist replacement.
  EXPECT_LE(result.final_scores.min, result.initial_scores.min + 1e-9);
  EXPECT_LE(result.final_scores.mean, result.initial_scores.mean + 1e-9);
}

TEST(RunnerTest, TinySpecCountsAreExpected) {
  // 2 ks x 2 orderings + 1 bottom + 1 top + 1 recode + 2 swap + 2 pram = 11.
  EXPECT_EQ(TinyCase().population_spec.TotalCount(), 11);
}

TEST(RunnerTest, RemoveBestFractionShrinksPopulation) {
  auto options = FastOptions(metrics::ScoreAggregation::kMax);
  options.remove_best_fraction = 0.2;  // 20% of 11 -> 2 removed
  auto full = RunExperiment(TinyCase(), FastOptions(metrics::ScoreAggregation::kMax))
                  .ValueOrDie();
  auto reduced = RunExperiment(TinyCase(), options).ValueOrDie();
  EXPECT_EQ(reduced.initial.size(), full.initial.size() - 2);
  // The removed individuals were the best: the reduced initial min is the
  // full population's 3rd-best initial score or worse.
  EXPECT_GE(reduced.initial_scores.min, full.initial_scores.min - 1e-9);
}

TEST(RunnerTest, RejectsBadRemoveFraction) {
  auto options = FastOptions(metrics::ScoreAggregation::kMax);
  options.remove_best_fraction = 1.0;
  EXPECT_FALSE(RunExperiment(TinyCase(), options).ok());
  options.remove_best_fraction = -0.1;
  EXPECT_FALSE(RunExperiment(TinyCase(), options).ok());
}

TEST(RunnerTest, DeterministicGivenSeeds) {
  auto options = FastOptions(metrics::ScoreAggregation::kMean);
  options.fitness.prl_em_iterations = 20;
  auto a = RunExperiment(TinyCase(), options).ValueOrDie();
  auto b = RunExperiment(TinyCase(), options).ValueOrDie();
  ASSERT_EQ(a.history.size(), b.history.size());
  EXPECT_DOUBLE_EQ(a.final_scores.min, b.final_scores.min);
  EXPECT_DOUBLE_EQ(a.final_scores.mean, b.final_scores.mean);
  EXPECT_DOUBLE_EQ(a.final_scores.max, b.final_scores.max);
}

TEST(RunnerTest, AggregationReachesBreakdown) {
  auto mean_run =
      RunExperiment(TinyCase(), FastOptions(metrics::ScoreAggregation::kMean))
          .ValueOrDie();
  for (const auto& member : mean_run.initial) {
    EXPECT_NEAR(member.score, (member.il + member.dr) / 2.0, 1e-9);
  }
  auto max_run =
      RunExperiment(TinyCase(), FastOptions(metrics::ScoreAggregation::kMax))
          .ValueOrDie();
  for (const auto& member : max_run.initial) {
    EXPECT_NEAR(member.score, std::max(member.il, member.dr), 1e-9);
  }
}

TEST(ImprovementTest, PercentFormula) {
  EXPECT_DOUBLE_EQ(ExperimentResult::ImprovementPercent(40.0, 30.0), 25.0);
  EXPECT_DOUBLE_EQ(ExperimentResult::ImprovementPercent(40.0, 50.0), -25.0);
  // Undefined for non-positive start scores: NaN, never a silent 0%.
  EXPECT_TRUE(std::isnan(ExperimentResult::ImprovementPercent(0.0, 10.0)));
  EXPECT_TRUE(std::isnan(ExperimentResult::ImprovementPercent(-5.0, 10.0)));
}

TEST(ReportTest, DispersionCsvShape) {
  auto result =
      RunExperiment(TinyCase(), FastOptions(metrics::ScoreAggregation::kMean))
          .ValueOrDie();
  std::ostringstream out;
  PrintDispersionCsv(result, out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "series,phase,index,il,dr,score,origin");
  int initial_rows = 0, final_rows = 0;
  while (std::getline(in, line)) {
    if (line.rfind("dispersion,initial,", 0) == 0) ++initial_rows;
    if (line.rfind("dispersion,final,", 0) == 0) ++final_rows;
  }
  EXPECT_EQ(initial_rows, 11);
  EXPECT_EQ(final_rows, 11);
}

TEST(ReportTest, EvolutionCsvShape) {
  auto result =
      RunExperiment(TinyCase(), FastOptions(metrics::ScoreAggregation::kMean))
          .ValueOrDie();
  std::ostringstream out;
  PrintEvolutionCsv(result, out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "series,generation,min_score,mean_score,max_score,operator");
  int rows = 0;
  while (std::getline(in, line)) {
    if (line.rfind("evolution,", 0) == 0) ++rows;
  }
  EXPECT_EQ(rows, 16);  // generation 0 (initial) + 15 generations
}

TEST(ReportTest, SummariesMentionKeyNumbers) {
  auto result =
      RunExperiment(TinyCase(), FastOptions(metrics::ScoreAggregation::kMax))
          .ValueOrDie();
  std::ostringstream out;
  PrintImprovementSummary(result, out);
  std::string text = out.str();
  EXPECT_NE(text.find("max "), std::string::npos);
  EXPECT_NE(text.find("mean"), std::string::npos);
  EXPECT_NE(text.find("min "), std::string::npos);
  EXPECT_NE(text.find("improvement"), std::string::npos);

  std::ostringstream timing;
  PrintTimingSummary(result, timing);
  EXPECT_NE(timing.str().find("timing,mutation,"), std::string::npos);
  EXPECT_NE(timing.str().find("timing,crossover,"), std::string::npos);
}

TEST(ReportTest, MeanImbalance) {
  std::vector<IndividualSummary> members;
  members.push_back({"a", 10.0, 30.0, 20.0});
  members.push_back({"b", 25.0, 25.0, 25.0});
  EXPECT_DOUBLE_EQ(MeanImbalance(members), 10.0);
  EXPECT_DOUBLE_EQ(MeanImbalance({}), 0.0);
}

}  // namespace
}  // namespace experiments
}  // namespace evocat
