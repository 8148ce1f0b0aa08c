#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/task_scheduler.h"
#include "datagen/generator.h"
#include "protection/population_builder.h"

namespace evocat {
namespace core {
namespace {

using evocat::testing::AllAttrs;

struct EngineFixture {
  Dataset original;
  std::vector<int> attrs;
  std::unique_ptr<metrics::FitnessEvaluator> evaluator;

  explicit EngineFixture(metrics::ScoreAggregation aggregation =
                             metrics::ScoreAggregation::kMean) {
    auto profile = datagen::UniformTestProfile("e", 120, {8, 6, 10});
    profile.attributes[0].kind = AttrKind::kOrdinal;
    for (auto& attr : profile.attributes) {
      attr.latent_weight = 0.4;
      attr.zipf_s = 0.5;
    }
    original = datagen::Generate(profile, 88).ValueOrDie();
    attrs = AllAttrs(original);
    metrics::FitnessEvaluator::Options options;
    options.aggregation = aggregation;
    evaluator = std::move(
        metrics::FitnessEvaluator::Create(original, attrs, options))
        .ValueOrDie();
  }

  std::vector<Individual> SeedPopulation(uint64_t seed, size_t count = 12) {
    protection::PopulationSpec spec;
    spec.microagg_ks = {3, 5};
    spec.microagg_orderings = {protection::MicroOrdering::kUnivariate};
    spec.bottom_fractions = {0.2};
    spec.top_fractions = {0.2};
    spec.recoding_group_sizes = {2, 3};
    spec.rankswap_percents = {5, 10, 15};
    spec.pram_retains = {0.8, 0.5, 0.3};
    auto files =
        protection::BuildProtections(original, attrs, spec, seed).ValueOrDie();
    std::vector<Individual> seeds;
    for (auto& file : files) {
      Individual individual;
      individual.data = std::move(file.data);
      individual.origin = std::move(file.method_label);
      seeds.push_back(std::move(individual));
    }
    seeds.resize(std::min(count, seeds.size()));
    return seeds;
  }
};

TEST(PopulationTest, SortAndStats) {
  Population population;
  for (double score : {30.0, 10.0, 20.0}) {
    Individual individual;
    individual.fitness.score = score;
    population.members().push_back(std::move(individual));
  }
  population.SortByScore();
  EXPECT_DOUBLE_EQ(population.best().score(), 10.0);
  EXPECT_DOUBLE_EQ(population.worst().score(), 30.0);
  EXPECT_DOUBLE_EQ(population.MinScore(), 10.0);
  EXPECT_DOUBLE_EQ(population.MeanScore(), 20.0);
  EXPECT_DOUBLE_EQ(population.MaxScore(), 30.0);
  EXPECT_EQ(population.Scores(), (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(EngineTest, ValidatesConfigAndInput) {
  EngineFixture fixture;
  GaConfig config;

  // Too-small population.
  EvolutionEngine engine(fixture.evaluator.get(), config);
  EXPECT_FALSE(engine.Run(fixture.SeedPopulation(1, 1)).ok());

  // Bad mutation rate.
  config.mutation_rate = 1.5;
  EXPECT_FALSE(EvolutionEngine(fixture.evaluator.get(), config)
                   .Run(fixture.SeedPopulation(1))
                   .ok());
  config.mutation_rate = 0.5;

  // Bad leader group.
  config.leader_group_size = 0;
  EXPECT_FALSE(EvolutionEngine(fixture.evaluator.get(), config)
                   .Run(fixture.SeedPopulation(1))
                   .ok());
  config.leader_group_size = 5;

  // Negative generations.
  config.generations = -1;
  EXPECT_FALSE(EvolutionEngine(fixture.evaluator.get(), config)
                   .Run(fixture.SeedPopulation(1))
                   .ok());
}

TEST(EngineTest, ZeroGenerationsJustEvaluates) {
  EngineFixture fixture;
  GaConfig config;
  config.generations = 0;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  auto result = std::move(engine.Run(fixture.SeedPopulation(2))).ValueOrDie();
  EXPECT_TRUE(result.history.empty());
  EXPECT_EQ(result.population.size(), 12u);
  // Fitness was filled in and the population is sorted.
  for (size_t i = 1; i < result.population.size(); ++i) {
    EXPECT_LE(result.population[i - 1].score(), result.population[i].score());
  }
}

TEST(EngineTest, MinScoreNeverWorsens) {
  // Elitism + deterministic crowding both replace only on strict
  // improvement, so the population minimum must be non-increasing.
  EngineFixture fixture;
  GaConfig config;
  config.generations = 120;
  config.seed = 7;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  auto result = std::move(engine.Run(fixture.SeedPopulation(3))).ValueOrDie();
  double last = 1e100;
  for (const auto& record : result.history) {
    EXPECT_LE(record.min_score, last + 1e-12);
    last = record.min_score;
  }
}

TEST(EngineTest, MeanScoreNeverWorsens) {
  // Every accepted replacement strictly lowers one member's score, so the
  // mean is also non-increasing under this replacement scheme.
  EngineFixture fixture;
  GaConfig config;
  config.generations = 120;
  config.seed = 8;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  auto result = std::move(engine.Run(fixture.SeedPopulation(4))).ValueOrDie();
  double last = 1e100;
  for (const auto& record : result.history) {
    EXPECT_LE(record.mean_score, last + 1e-9);
    last = record.mean_score;
  }
}

TEST(EngineTest, DeterministicGivenSeed) {
  EngineFixture fixture;
  GaConfig config;
  config.generations = 60;
  config.seed = 99;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  auto a = std::move(engine.Run(fixture.SeedPopulation(5))).ValueOrDie();
  auto b = std::move(engine.Run(fixture.SeedPopulation(5))).ValueOrDie();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].min_score, b.history[i].min_score);
    EXPECT_DOUBLE_EQ(a.history[i].mean_score, b.history[i].mean_score);
    EXPECT_DOUBLE_EQ(a.history[i].max_score, b.history[i].max_score);
    EXPECT_EQ(a.history[i].op, b.history[i].op);
  }
  EXPECT_DOUBLE_EQ(a.population.best().score(), b.population.best().score());
}

TEST(EngineTest, DifferentSeedsDiverge) {
  EngineFixture fixture;
  GaConfig config;
  config.generations = 60;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  config.seed = 1;
  auto a = std::move(EvolutionEngine(fixture.evaluator.get(), config)
                         .Run(fixture.SeedPopulation(5)))
               .ValueOrDie();
  config.seed = 2;
  auto b = std::move(EvolutionEngine(fixture.evaluator.get(), config)
                         .Run(fixture.SeedPopulation(5)))
               .ValueOrDie();
  bool any_diff = false;
  for (size_t i = 0; i < a.history.size(); ++i) {
    if (a.history[i].op != b.history[i].op ||
        a.history[i].mean_score != b.history[i].mean_score) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(EngineTest, OperatorMixTracksMutationRate) {
  EngineFixture fixture;
  GaConfig config;
  config.generations = 200;
  config.seed = 13;

  config.mutation_rate = 1.0;
  auto all_mutation = std::move(EvolutionEngine(fixture.evaluator.get(), config)
                                    .Run(fixture.SeedPopulation(6)))
                          .ValueOrDie();
  EXPECT_EQ(all_mutation.stats.mutation_generations, 200);
  EXPECT_EQ(all_mutation.stats.crossover_generations, 0);

  config.mutation_rate = 0.0;
  auto all_crossover =
      std::move(EvolutionEngine(fixture.evaluator.get(), config)
                    .Run(fixture.SeedPopulation(6)))
          .ValueOrDie();
  EXPECT_EQ(all_crossover.stats.mutation_generations, 0);
  EXPECT_EQ(all_crossover.stats.crossover_generations, 200);

  config.mutation_rate = 0.5;
  auto mixed = std::move(EvolutionEngine(fixture.evaluator.get(), config)
                             .Run(fixture.SeedPopulation(6)))
                   .ValueOrDie();
  EXPECT_GT(mixed.stats.mutation_generations, 60);
  EXPECT_GT(mixed.stats.crossover_generations, 60);
}

TEST(EngineTest, HistoryBookkeepingConsistent) {
  EngineFixture fixture;
  GaConfig config;
  config.generations = 80;
  config.seed = 21;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  auto result = std::move(engine.Run(fixture.SeedPopulation(7))).ValueOrDie();
  ASSERT_EQ(result.history.size(), 80u);
  int64_t evals = 0;
  for (size_t i = 0; i < result.history.size(); ++i) {
    const auto& record = result.history[i];
    EXPECT_EQ(record.generation, static_cast<int>(i) + 1);
    EXPECT_LE(record.min_score, record.mean_score);
    EXPECT_LE(record.mean_score, record.max_score);
    EXPECT_EQ(record.evaluations,
              record.op == OperatorKind::kMutation ? 1 : 2);
    evals += record.evaluations;
  }
  EXPECT_EQ(result.stats.offspring_evaluated, evals);
  EXPECT_EQ(result.stats.mutation_generations +
                result.stats.crossover_generations,
            80);
}

TEST(EngineTest, EarlyStopOnStagnation) {
  EngineFixture fixture;
  GaConfig config;
  config.generations = 500;
  config.no_improvement_window = 10;
  config.seed = 17;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  auto result = std::move(engine.Run(fixture.SeedPopulation(8))).ValueOrDie();
  EXPECT_LT(result.history.size(), 500u);  // stopped early
  // The last window of generations shows no min-score improvement.
  size_t n = result.history.size();
  ASSERT_GE(n, 10u);
  double window_start_min = result.history[n - 10].min_score;
  EXPECT_DOUBLE_EQ(result.history[n - 1].min_score, window_start_min);
}

TEST(EngineTest, CallbackSeesEveryGeneration) {
  EngineFixture fixture;
  GaConfig config;
  config.generations = 30;
  config.seed = 19;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  int calls = 0;
  auto result = std::move(engine.Run(
                              fixture.SeedPopulation(9),
                              [&](const GenerationRecord& record,
                                  const Population& population) {
                                ++calls;
                                EXPECT_EQ(record.generation, calls);
                                EXPECT_EQ(population.size(), 12u);
                              }))
                    .ValueOrDie();
  EXPECT_EQ(calls, 30);
}

TEST(EngineTest, RejectsIncomparableIndividual) {
  EngineFixture fixture;
  GaConfig config;
  auto seeds = fixture.SeedPopulation(10);
  // Corrupt one individual with a foreign dataset (different schema).
  auto profile = datagen::UniformTestProfile("other", 120, {8, 6, 10});
  seeds[0].data = datagen::Generate(profile, 1).ValueOrDie();
  EvolutionEngine engine(fixture.evaluator.get(), config);
  EXPECT_FALSE(engine.Run(std::move(seeds)).ok());
}

TEST(EngineTest, MaxAggregationReducesImbalance) {
  // Under Eq. 2 the best individual's |IL - DR| gap should be modest after
  // evolution — the paper's §3.2 observation.
  EngineFixture fixture(metrics::ScoreAggregation::kMax);
  GaConfig config;
  config.generations = 150;
  config.seed = 23;
  EvolutionEngine engine(fixture.evaluator.get(), config);
  auto result = std::move(engine.Run(fixture.SeedPopulation(11))).ValueOrDie();
  const auto& best = result.population.best();
  EXPECT_LE(std::fabs(best.fitness.il - best.fitness.dr), 25.0);
}

TEST(EngineTest, EveryMemberMatchesEvaluateAfterEveryGeneration) {
  // Offspring are scored through their parents' delta states; after every
  // generation each member's fitness must still equal a from-scratch
  // Evaluate of its file (the paper's full re-score). A self-mating step
  // (the crossover mate is the first parent) swaps a segment between two
  // copies of one file, so it serves no evaluation and accepts nothing. The
  // second case (one leader, two members, crossover only) mates the leader
  // with itself often.
  EngineFixture fixture;
  struct Case {
    int generations;
    uint64_t seed;
    double mutation_rate;
    int leader_group_size;
    size_t members;
  };
  const Case cases[] = {{60, 31, 0.5, 10, 12}, {40, 5, 0.0, 1, 2}};
  for (const Case& c : cases) {
    SCOPED_TRACE("ga seed " + std::to_string(c.seed));
    GaConfig config;
    config.generations = c.generations;
    config.seed = c.seed;
    config.mutation_rate = c.mutation_rate;
    config.leader_group_size = c.leader_group_size;
    int generations = 0;
    int self_matings = 0;
    int64_t served = 0;
    auto check = [&](const GenerationRecord& record,
                     const Population& population) {
      ++generations;
      if (fixture.evaluator->num_evaluations() == served) {
        ++self_matings;
        EXPECT_EQ(record.op, OperatorKind::kCrossover);
        EXPECT_FALSE(record.accepted) << "generation " << record.generation;
      }
      evocat::testing::ExpectMatchesEvaluate(
          *fixture.evaluator, population,
          "generation " + std::to_string(record.generation));
      served = fixture.evaluator->num_evaluations();
    };
    // Bound up front, so the first step's evaluations are counted alone.
    auto seeds = fixture.SeedPopulation(13, c.members);
    for (auto& seed : seeds) {
      seed.eval_state = fixture.evaluator->BindState(seed.data);
    }
    served = fixture.evaluator->num_evaluations();
    auto result = std::move(EvolutionEngine(fixture.evaluator.get(), config)
                                .Run(std::move(seeds), check))
                      .ValueOrDie();
    EXPECT_EQ(generations, c.generations);
    EXPECT_GT(self_matings, 0);
    EXPECT_GT(
        result.stats.accepted_mutations + result.stats.accepted_crossovers, 0);
  }
}

TEST(EngineTest, DeterministicAcross1And4Workers) {
  // The crossover legs and every measure's inner loops fan out over the
  // scheduler the run executes on; 1 and 4 workers must agree bit for bit.
  EngineFixture fixture;
  GaConfig config;
  config.generations = 40;
  config.seed = 29;
  auto run_on = [&](int workers) {
    Result<EvolutionResult> result(Status::Internal("not executed"));
    RunOnScheduler(workers, [&] {
      result = EvolutionEngine(fixture.evaluator.get(), config)
                   .Run(fixture.SeedPopulation(12));
    });
    return std::move(result).ValueOrDie();
  };
  EvolutionResult serial = run_on(1);
  EvolutionResult parallel = run_on(4);
  ASSERT_EQ(serial.history.size(), parallel.history.size());
  for (size_t i = 0; i < serial.history.size(); ++i) {
    EXPECT_EQ(serial.history[i].op, parallel.history[i].op);
    EXPECT_EQ(serial.history[i].accepted, parallel.history[i].accepted);
    EXPECT_DOUBLE_EQ(serial.history[i].min_score,
                     parallel.history[i].min_score);
    EXPECT_DOUBLE_EQ(serial.history[i].mean_score,
                     parallel.history[i].mean_score);
    EXPECT_DOUBLE_EQ(serial.history[i].max_score,
                     parallel.history[i].max_score);
  }
  EXPECT_TRUE(
      serial.population.best().data.SameCodes(parallel.population.best().data));
}

}  // namespace
}  // namespace core
}  // namespace evocat
