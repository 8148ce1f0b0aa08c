#include "experiments/report.h"

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "datagen/profile.h"
#include "protection/population_builder.h"

namespace evocat {
namespace experiments {
namespace {

// A trimmed job (small file, small population) that runs in well under a
// second; full paper cases are exercised by the bench binaries.
api::RunArtifacts TinyRun(metrics::ScoreAggregation aggregation) {
  api::JobSpec spec;
  spec.source.has_inline_profile = true;
  spec.source.profile = datagen::UniformTestProfile("tiny", 80, {7, 5, 9});
  spec.source.profile.attributes[0].kind = AttrKind::kOrdinal;
  for (auto& attr : spec.source.profile.attributes) {
    attr.latent_weight = 0.4;
    attr.zipf_s = 0.5;
  }
  // 2 ks x 2 orderings + 1 bottom + 1 top + 1 recode + 2 swap + 2 pram = 11.
  protection::PopulationSpec population;
  population.microagg_ks = {3, 6};
  population.microagg_orderings = {protection::MicroOrdering::kUnivariate,
                                   protection::MicroOrdering::kSortByAttr0};
  population.bottom_fractions = {0.2};
  population.top_fractions = {0.2};
  population.recoding_group_sizes = {2};
  population.rankswap_percents = {5, 15};
  population.pram_retains = {0.7, 0.4};
  spec.methods = api::RosterFromPopulationSpec(population);
  spec.measures.aggregation = aggregation;
  spec.ga.generations = 15;
  spec.seeds.data = 0xDA7A;
  spec.seeds.protection = 0x9A5C;
  spec.seeds.ga = 5;
  return api::Session().Run(spec).ValueOrDie();
}

TEST(ImprovementTest, PercentFormula) {
  EXPECT_DOUBLE_EQ(ImprovementPercent(40.0, 30.0), 25.0);
  EXPECT_DOUBLE_EQ(ImprovementPercent(40.0, 50.0), -25.0);
  // Undefined for non-positive start scores: NaN, never a silent 0%.
  EXPECT_TRUE(std::isnan(ImprovementPercent(0.0, 10.0)));
  EXPECT_TRUE(std::isnan(ImprovementPercent(-5.0, 10.0)));
}

TEST(ReportTest, DispersionCsvShape) {
  auto run = TinyRun(metrics::ScoreAggregation::kMean);
  std::ostringstream out;
  PrintDispersionCsv(run, out);
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
  auto run = TinyRun(metrics::ScoreAggregation::kMean);
  std::ostringstream out;
  PrintEvolutionCsv(run, out);
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
  auto run = TinyRun(metrics::ScoreAggregation::kMax);
  std::ostringstream out;
  PrintImprovementSummary(run, out);
  std::string text = out.str();
  EXPECT_NE(text.find("[tiny] aggregation=max generations=15 population=11"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("max "), std::string::npos);
  EXPECT_NE(text.find("mean"), std::string::npos);
  EXPECT_NE(text.find("min "), std::string::npos);
  EXPECT_NE(text.find("improvement"), std::string::npos);

  std::ostringstream timing;
  PrintTimingSummary(run, timing);
  EXPECT_NE(timing.str().find("timing,mutation,"), std::string::npos);
  EXPECT_NE(timing.str().find("timing,crossover,"), std::string::npos);
}

TEST(ReportTest, MeanImbalance) {
  std::vector<api::MemberSummary> members(2);
  members[0].fitness.il = 10.0;
  members[0].fitness.dr = 30.0;
  members[1].fitness.il = 25.0;
  members[1].fitness.dr = 25.0;
  EXPECT_DOUBLE_EQ(MeanImbalance(members), 10.0);
  EXPECT_DOUBLE_EQ(MeanImbalance({}), 0.0);
}

}  // namespace
}  // namespace experiments
}  // namespace evocat
