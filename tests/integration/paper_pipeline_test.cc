// Integration tests asserting the paper's qualitative findings end to end on
// scaled-down (fast) versions of the real experiment pipeline. These are the
// "does the reproduction reproduce" checks; the full-size runs live in
// bench/.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "api/session.h"
#include "datagen/profile.h"
#include "experiments/report.h"
#include "protection/population_builder.h"

namespace evocat {
namespace experiments {
namespace {

// A paper case's profile and seed mix at 200 records for speed, with fixed
// stage seeds. The profile is inline, so the roster is spelled out.
api::JobSpec SmallCase(const datagen::SyntheticProfile& profile,
                       const protection::PopulationSpec& population,
                       metrics::ScoreAggregation aggregation, int generations) {
  api::JobSpec spec;
  spec.source.has_inline_profile = true;
  spec.source.profile = profile;
  spec.source.profile.num_records = 200;
  spec.methods = api::RosterFromPopulationSpec(population);
  spec.measures.aggregation = aggregation;
  spec.measures.prl_em_iterations = 30;
  spec.ga.generations = generations;
  spec.seeds.data = 0xDA7A;
  spec.seeds.protection = 0x9A5C;
  spec.seeds.ga = 42;
  return spec;
}

// Flare-like; keeps the paper's protected cardinalities (8/7/5) which drive
// the balance behaviour.
api::JobSpec SmallFlare(metrics::ScoreAggregation aggregation,
                        int generations) {
  return SmallCase(datagen::SolarFlareProfile(),
                   protection::GermanFlarePopulationSpec(), aggregation,
                   generations);
}

api::JobSpec SmallAdult(metrics::ScoreAggregation aggregation,
                        int generations) {
  return SmallCase(datagen::AdultProfile(), protection::AdultPopulationSpec(),
                   aggregation, generations);
}

api::RunArtifacts RunJob(const api::JobSpec& spec) {
  return api::Session().Run(spec).ValueOrDie();
}

TEST(PaperPipelineTest, PopulationNeverDegradesAndImproves) {
  // Paper §3.1: the GA optimizes most protections; min/mean must not rise,
  // mean must measurably fall.
  auto result = RunJob(SmallAdult(metrics::ScoreAggregation::kMean, 250));
  EXPECT_LE(result.final_scores.min, result.initial_scores.min + 1e-9);
  EXPECT_LT(result.final_scores.mean, result.initial_scores.mean);
  EXPECT_LE(result.final_scores.max, result.initial_scores.max + 1e-9);
}

TEST(PaperPipelineTest, MaxScoreBalancesBetterThanMean) {
  // Paper §3.2's headline: the final population under Eq. 2 is concentrated
  // around IL == DR compared to Eq. 1.
  auto mean_run = RunJob(SmallAdult(metrics::ScoreAggregation::kMean, 400));
  auto max_run = RunJob(SmallAdult(metrics::ScoreAggregation::kMax, 400));
  double mean_imbalance = MeanImbalance(mean_run.final_population);
  double max_imbalance = MeanImbalance(max_run.final_population);
  // Both improve on the initial cloud, but Eq.2 must not be worse than Eq.1
  // on balance (paper: clearly better).
  EXPECT_LE(max_imbalance, mean_imbalance + 2.0);
  EXPECT_LT(max_imbalance, MeanImbalance(max_run.initial));
}

TEST(PaperPipelineTest, MinScoreBarelyMoves) {
  // Paper: "the improvement [of the min score] is very small" — enforce
  // that the min does not improve more than the mean does, in points.
  auto result = RunJob(SmallFlare(metrics::ScoreAggregation::kMax, 300));
  double min_gain = result.initial_scores.min - result.final_scores.min;
  double mean_gain = result.initial_scores.mean - result.final_scores.mean;
  EXPECT_GE(min_gain, 0.0);
  EXPECT_LE(min_gain, mean_gain + 1e-9);
}

TEST(PaperPipelineTest, RobustnessRecoversRemovedElite) {
  // Paper §3.3: removing the best 10% of seeds still lands within a few
  // points of the full run's final min.
  auto full = RunJob(SmallFlare(metrics::ScoreAggregation::kMax, 400));
  auto spec = SmallFlare(metrics::ScoreAggregation::kMax, 400);
  spec.remove_best_fraction = 0.10;
  auto reduced = RunJob(spec);

  // The handicapped start is strictly worse...
  EXPECT_GT(reduced.initial_scores.min, full.initial_scores.min);
  // ...but evolution recovers most of the gap (generous 6-point budget on
  // this small fast instance; the paper reports ~1 point at full scale).
  EXPECT_LE(reduced.final_scores.min, full.final_scores.min + 6.0);
  // And it must recover at least part of its own initial handicap.
  EXPECT_LT(reduced.final_scores.min, reduced.initial_scores.min);
}

TEST(PaperPipelineTest, EvolutionHistoryMatchesFinalPopulation) {
  auto result = RunJob(SmallAdult(metrics::ScoreAggregation::kMax, 100));
  ASSERT_FALSE(result.history.empty());
  const auto& last = result.history.back();
  EXPECT_NEAR(last.min_score, result.final_scores.min, 1e-9);
  EXPECT_NEAR(last.mean_score, result.final_scores.mean, 1e-9);
  EXPECT_NEAR(last.max_score, result.final_scores.max, 1e-9);
  // Final population is sorted ascending.
  for (size_t i = 1; i < result.final_population.size(); ++i) {
    EXPECT_LE(result.final_population[i - 1].fitness.score,
              result.final_population[i].fitness.score);
  }
}

TEST(PaperPipelineTest, TimingStatsShapeMatchesPaper) {
  // Fitness evaluation dominates generation time, and crossover generations
  // cost more than mutation generations on average (two offspring vs one,
  // serial engine).
  auto result = RunJob(SmallFlare(metrics::ScoreAggregation::kMax, 200));
  const auto& stats = result.stats;
  ASSERT_GT(stats.mutation_generations, 0);
  ASSERT_GT(stats.crossover_generations, 0);
  double eval_time =
      stats.mutation_eval_seconds + stats.crossover_eval_seconds;
  double total_time =
      stats.mutation_total_seconds + stats.crossover_total_seconds;
  EXPECT_GT(eval_time / total_time, 0.5);  // fitness dominates
}

TEST(PaperPipelineTest, SeedsReproduceRuns) {
  auto spec = SmallFlare(metrics::ScoreAggregation::kMax, 120);
  auto a = RunJob(spec);
  auto b = RunJob(spec);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); i += 10) {
    EXPECT_DOUBLE_EQ(a.history[i].mean_score, b.history[i].mean_score);
  }
  // Different GA seed diverges.
  spec.seeds.ga = 777;
  auto c = RunJob(spec);
  bool diverged = false;
  for (size_t i = 0; i < a.history.size(); ++i) {
    if (std::fabs(a.history[i].mean_score - c.history[i].mean_score) > 1e-12) {
      diverged = true;
      break;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(PaperPipelineTest, OffspringEnterThePopulation) {
  // After a few hundred generations some survivors must be GA offspring
  // (origin tagged mutation<...> or cross<...>), demonstrating the GA found
  // protections no classical method produced.
  auto result = RunJob(SmallAdult(metrics::ScoreAggregation::kMax, 400));
  int offspring = 0;
  for (const auto& member : result.final_population) {
    if (member.origin.rfind("mutation<", 0) == 0 ||
        member.origin.rfind("cross<", 0) == 0) {
      ++offspring;
    }
  }
  EXPECT_GT(offspring, 0);
}

}  // namespace
}  // namespace experiments
}  // namespace evocat
