// Strategy subsystem tests: registry behaviour, and the contract every
// strategy signs up to — same seed ⇒ bit-identical best individual whether
// the run executes on 1 worker or 4, the generational strategy bit-identical
// to the raw engine, and a final population whose delta-path scores match a
// from-scratch Evaluate.

#include "evolve/registry.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "api/session.h"
#include "common/task_scheduler.h"
#include "core/engine.h"
#include "datagen/generator.h"
#include "evolve/strategy.h"
#include "protection/population_builder.h"

namespace evocat {
namespace evolve {
namespace {

using evocat::testing::AllAttrs;

struct StrategyFixture {
  Dataset original;
  std::vector<int> attrs;
  std::unique_ptr<metrics::FitnessEvaluator> evaluator;

  StrategyFixture() {
    auto profile = datagen::UniformTestProfile("s", 120, {8, 6, 10});
    profile.attributes[0].kind = AttrKind::kOrdinal;
    for (auto& attr : profile.attributes) {
      attr.latent_weight = 0.4;
      attr.zipf_s = 0.5;
    }
    original = datagen::Generate(profile, 88).ValueOrDie();
    attrs = AllAttrs(original);
    evaluator = std::move(
        metrics::FitnessEvaluator::Create(original, attrs)).ValueOrDie();
  }

  std::vector<core::Individual> SeedPopulation(uint64_t seed) {
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
    std::vector<core::Individual> seeds;
    for (auto& file : files) {
      core::Individual individual;
      individual.data = std::move(file.data);
      individual.origin = std::move(file.method_label);
      seeds.push_back(std::move(individual));
    }
    return seeds;
  }
};

/// Runs `strategy` on a private scheduler with `threads` workers, so the
/// strategy's internal ParallelFor loops split across exactly that many
/// workers (1 = fully serial execution) and its measure states shard their
/// builds `threads` ways. A finished run's final population is re-scored
/// with Evaluate (1e-9).
Result<core::EvolutionResult> RunStrategy(
    int threads, const EvolutionStrategy& strategy,
    const StrategyFixture& fixture, const core::GaConfig& config,
    std::vector<core::Individual> initial) {
  Result<core::EvolutionResult> result(Status::Internal("not executed"));
  RunOnScheduler(threads, [&] {
    result = strategy.Run(fixture.evaluator.get(), config, std::move(initial),
                          nullptr);
  });
  if (result.ok()) {
    evocat::testing::ExpectMatchesEvaluate(
        *fixture.evaluator, result.ValueOrDie().population,
        strategy.name() + " final population on " + std::to_string(threads) +
            " workers");
  }
  return result;
}

void ExpectIdenticalResults(const core::EvolutionResult& a,
                            const core::EvolutionResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].generation, b.history[i].generation);
    EXPECT_EQ(a.history[i].island, b.history[i].island);
    EXPECT_EQ(a.history[i].op, b.history[i].op);
    EXPECT_DOUBLE_EQ(a.history[i].min_score, b.history[i].min_score);
    EXPECT_DOUBLE_EQ(a.history[i].mean_score, b.history[i].mean_score);
    EXPECT_DOUBLE_EQ(a.history[i].max_score, b.history[i].max_score);
    EXPECT_EQ(a.history[i].accepted, b.history[i].accepted);
  }
  ASSERT_EQ(a.population.size(), b.population.size());
  EXPECT_DOUBLE_EQ(a.population.best().score(), b.population.best().score());
  EXPECT_TRUE(a.population.best().data.SameCodes(b.population.best().data));
}

TEST(StrategyRegistryTest, ContainsBuiltinsAndRejectsUnknowns) {
  StrategyRegistry& registry = StrategyRegistry::Global();
  EXPECT_TRUE(registry.Contains("generational"));
  EXPECT_TRUE(registry.Contains("steady_state"));
  EXPECT_TRUE(registry.Contains("islands"));
  EXPECT_TRUE(registry.Contains("ISLANDS"));  // case-insensitive
  EXPECT_FALSE(registry.Contains("annealing"));

  auto unknown = registry.Create("annealing");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("islands"), std::string::npos);

  EXPECT_EQ(registry.Names(), (std::vector<std::string>{
                                  "generational", "islands", "steady_state"}));
}

TEST(StrategyRegistryTest, ValidatesParameters) {
  StrategyRegistry& registry = StrategyRegistry::Global();
  // Generational accepts no parameters at all.
  EXPECT_FALSE(registry.Create("generational", {{"lambda", "4"}}).ok());
  // Unknown key.
  EXPECT_FALSE(registry.Create("steady_state", {{"mu", "4"}}).ok());
  // Range checks.
  EXPECT_FALSE(registry.Create("steady_state", {{"lambda", "0"}}).ok());
  EXPECT_FALSE(registry.Create("islands", {{"islands", "0"}}).ok());
  EXPECT_FALSE(registry.Create("islands", {{"migration_interval", "0"}}).ok());
  EXPECT_FALSE(registry.Create("islands", {{"migrants", "-1"}}).ok());
  // The retired schedule knob is an unknown parameter.
  auto parallel = registry.Create("islands", {{"parallel", "true"}});
  ASSERT_FALSE(parallel.ok());
  EXPECT_NE(parallel.status().message().find("unknown parameter"),
            std::string::npos);
  EXPECT_FALSE(registry.Create("islands", {{"stop_mode", "sometimes"}}).ok());
  EXPECT_TRUE(registry.Create("islands", {{"stop_mode", "global"}}).ok());
  EXPECT_TRUE(registry.Create("islands", {{"stop_mode", "per_island"}}).ok());
  // Malformed value.
  EXPECT_FALSE(registry.Create("steady_state", {{"lambda", "eight"}}).ok());
  // Valid configurations construct.
  EXPECT_TRUE(registry.Create("steady_state", {{"lambda", "4"}}).ok());
  EXPECT_TRUE(registry
                  .Create("islands", {{"islands", "2"},
                                      {"migration_interval", "5"},
                                      {"migrants", "2"}})
                  .ok());
}

TEST(GenerationalStrategyTest, BitIdenticalToEngine) {
  StrategyFixture fixture;
  core::GaConfig config;
  config.generations = 60;
  config.seed = 99;

  auto strategy =
      StrategyRegistry::Global().Create("generational").ValueOrDie();
  auto via_strategy =
      std::move(strategy->Run(fixture.evaluator.get(), config,
                              fixture.SeedPopulation(5), nullptr))
          .ValueOrDie();
  auto via_engine =
      std::move(core::EvolutionEngine(fixture.evaluator.get(), config)
                    .Run(fixture.SeedPopulation(5)))
          .ValueOrDie();
  ExpectIdenticalResults(via_strategy, via_engine);
}

TEST(SteadyStateStrategyTest, DeterministicAcross1And4Workers) {
  // Offspring of one slot are scored serially through that parent's state
  // (ApplyDelta -> breakdown -> Revert) and accepted ones re-apply their
  // delta; both schedules must agree bit for bit, and RunStrategy holds
  // every final score to a from-scratch Evaluate.
  StrategyFixture fixture;
  struct Case {
    const char* lambda;
    int generations;
    uint64_t ga_seed;
    uint64_t population_seed;
  };
  const Case cases[] = {{"6", 30, 42, 7}, {"3", 25, 17, 9}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string("lambda ") + c.lambda);
    core::GaConfig config;
    config.generations = c.generations;
    config.seed = c.ga_seed;
    auto strategy = StrategyRegistry::Global()
                        .Create("steady_state", {{"lambda", c.lambda}})
                        .ValueOrDie();
    auto serial =
        std::move(RunStrategy(1, *strategy, fixture, config,
                              fixture.SeedPopulation(c.population_seed)))
            .ValueOrDie();
    auto parallel =
        std::move(RunStrategy(4, *strategy, fixture, config,
                              fixture.SeedPopulation(c.population_seed)))
            .ValueOrDie();
    ExpectIdenticalResults(serial, parallel);
  }
}

TEST(SteadyStateStrategyTest, DataPlaneShardCountsAreBitIdentical) {
  // A full GA run on schedulers with 1, 3 and 8 workers — so every state
  // build shards 1, 3 and 8 ways — must match bit-for-bit: same history,
  // same accepted offspring, same best individual. The run's crossovers
  // regularly exceed the measures' rebuild thresholds, so the rebuild-sized
  // path is covered too.
  StrategyFixture fixture;
  core::GaConfig config;
  config.generations = 25;
  config.seed = 77;
  auto strategy = StrategyRegistry::Global()
                      .Create("steady_state", {{"lambda", "4"}})
                      .ValueOrDie();

  auto baseline = std::move(RunStrategy(1, *strategy, fixture, config,
                                        fixture.SeedPopulation(9)))
                      .ValueOrDie();
  for (int workers : {3, 8}) {
    auto result = std::move(RunStrategy(workers, *strategy, fixture, config,
                                        fixture.SeedPopulation(9)))
                      .ValueOrDie();
    ExpectIdenticalResults(baseline, result);
  }
}

TEST(SteadyStateStrategyTest, StepInvariants) {
  StrategyFixture fixture;
  core::GaConfig config;
  config.generations = 40;
  config.seed = 11;

  auto strategy = StrategyRegistry::Global()
                      .Create("steady_state", {{"lambda", "4"}})
                      .ValueOrDie();
  auto result = std::move(strategy->Run(fixture.evaluator.get(), config,
                                        fixture.SeedPopulation(3), nullptr))
                    .ValueOrDie();
  ASSERT_EQ(result.history.size(), 40u);
  double last = 1e100;
  for (const auto& record : result.history) {
    // Lambda offspring per mutation step, 2*lambda per crossover step.
    EXPECT_EQ(record.evaluations,
              record.op == core::OperatorKind::kMutation ? 4 : 8);
    // Replace-only-on-strict-improvement keeps the minimum non-increasing.
    EXPECT_LE(record.min_score, last + 1e-12);
    last = record.min_score;
  }
  EXPECT_EQ(result.stats.offspring_evaluated,
            result.stats.mutation_generations * 4 +
                result.stats.crossover_generations * 8);
}

TEST(IslandsStrategyTest, DeterministicAcross1And4Workers) {
  // Islands evolve concurrently on the pool; on 1 worker they run one after
  // another. Both schedules must agree bit for bit, with and without
  // multi-member migration.
  StrategyFixture fixture;
  struct Case {
    ParamMap params;
    uint64_t ga_seed;
    uint64_t population_seed;
  };
  const Case cases[] = {
      {{{"islands", "4"}, {"migration_interval", "5"}}, 23, 13},
      {{{"islands", "3"}, {"migration_interval", "4"}, {"migrants", "2"}},
       29,
       15},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("ga seed " + std::to_string(c.ga_seed));
    core::GaConfig config;
    config.generations = 20;
    config.seed = c.ga_seed;
    auto strategy =
        StrategyRegistry::Global().Create("islands", c.params).ValueOrDie();
    auto serial =
        std::move(RunStrategy(1, *strategy, fixture, config,
                              fixture.SeedPopulation(c.population_seed)))
            .ValueOrDie();
    auto parallel =
        std::move(RunStrategy(4, *strategy, fixture, config,
                              fixture.SeedPopulation(c.population_seed)))
            .ValueOrDie();
    ExpectIdenticalResults(serial, parallel);
  }
}

TEST(IslandsStrategyTest, HistoryCarriesEveryIslandsTrajectory) {
  StrategyFixture fixture;
  core::GaConfig config;
  config.generations = 12;
  config.seed = 31;

  auto strategy = StrategyRegistry::Global()
                      .Create("islands", {{"islands", "4"},
                                          {"migration_interval", "6"}})
                      .ValueOrDie();
  auto seeds = fixture.SeedPopulation(17);
  double initial_count = static_cast<double>(seeds.size());
  auto result = std::move(strategy->Run(fixture.evaluator.get(), config,
                                        std::move(seeds), nullptr))
                    .ValueOrDie();

  // 4 islands x 12 generations, each island's records tagged and complete.
  ASSERT_EQ(result.history.size(), 48u);
  std::vector<int> per_island(4, 0);
  for (const auto& record : result.history) {
    ASSERT_GE(record.island, 0);
    ASSERT_LT(record.island, 4);
    ++per_island[static_cast<size_t>(record.island)];
  }
  EXPECT_EQ(per_island, (std::vector<int>{12, 12, 12, 12}));

  // The merged population preserves every member and is sorted.
  EXPECT_EQ(static_cast<double>(result.population.size()), initial_count);
  for (size_t i = 1; i < result.population.size(); ++i) {
    EXPECT_LE(result.population[i - 1].score(), result.population[i].score());
  }
  // Copy-based migration never loses the global best.
  double best_history = 1e100;
  for (const auto& record : result.history) {
    best_history = std::min(best_history, record.min_score);
  }
  EXPECT_DOUBLE_EQ(result.population.best().score(), best_history);
}

TEST(IslandsStrategyTest, GlobalStopModeHaltsAllIslandsTogether) {
  // stop_mode=global: no_improvement_window watches the cross-island best
  // at migration-epoch barriers — once it stalls for the window, every
  // island stops in the same epoch (per_island would leave healthy islands
  // running and stop stalled ones individually).
  StrategyFixture fixture;
  core::GaConfig config;
  config.generations = 60;
  config.seed = 37;
  config.no_improvement_window = 2;

  auto global = StrategyRegistry::Global()
                    .Create("islands", {{"islands", "3"},
                                        {"migration_interval", "2"},
                                        {"stop_mode", "global"}})
                    .ValueOrDie();
  auto result = std::move(global->Run(fixture.evaluator.get(), config,
                                      fixture.SeedPopulation(23), nullptr))
                    .ValueOrDie();

  // Epoch-synchronized: every island contributed the same generation count,
  // a multiple of the migration interval.
  std::vector<int> per_island(3, 0);
  for (const auto& record : result.history) {
    ++per_island[static_cast<size_t>(record.island)];
  }
  EXPECT_EQ(per_island[0], per_island[1]);
  EXPECT_EQ(per_island[1], per_island[2]);
  EXPECT_EQ(per_island[0] % 2, 0);
  // The stop fired: with a 2-generation window over 60 generations this
  // deterministic run stalls long before the full budget.
  EXPECT_LT(result.history.size(), 3u * 60u);

  // A window-less run is untouched by the mode (no early stop to take).
  config.no_improvement_window = 0;
  auto full = std::move(global->Run(fixture.evaluator.get(), config,
                                    fixture.SeedPopulation(23), nullptr))
                  .ValueOrDie();
  EXPECT_EQ(full.history.size(), 3u * 60u);
}

TEST(IslandsStrategyTest, RejectsPopulationTooSmallForIslandCount) {
  StrategyFixture fixture;
  core::GaConfig config;
  config.generations = 5;
  auto strategy = StrategyRegistry::Global()
                      .Create("islands", {{"islands", "16"}})
                      .ValueOrDie();
  auto seeds = fixture.SeedPopulation(19);
  seeds.resize(12);  // 16 islands need >= 32 members
  auto result = strategy->Run(fixture.evaluator.get(), config,
                              std::move(seeds), nullptr);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StrategyTest, EveryStrategyHonorsPresetCancel) {
  StrategyFixture fixture;
  core::GaConfig config;
  config.generations = 50;
  std::atomic<bool> cancel{true};
  for (const std::string& name : StrategyRegistry::Global().Names()) {
    auto strategy = StrategyRegistry::Global().Create(name).ValueOrDie();
    auto result = strategy->Run(fixture.evaluator.get(), config,
                                fixture.SeedPopulation(21), &cancel);
    EXPECT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled) << name;
  }
}

TEST(StrategySessionTest, DefaultSpecMatchesExplicitGenerational) {
  // A spec without a strategy block must run exactly the pre-strategy
  // engine path; naming "generational" explicitly changes nothing.
  api::JobSpec spec;
  spec.source.kind = api::SourceSpec::Kind::kSynthetic;
  spec.source.has_inline_profile = true;
  spec.source.profile = datagen::UniformTestProfile("t", 150, {9, 7, 11});
  spec.ga.generations = 80;
  spec.seeds.master = 4242;

  api::Session session;
  auto implicit = std::move(session.Run(spec)).ValueOrDie();
  spec.strategy.name = "generational";
  auto explicit_run = std::move(session.Run(spec)).ValueOrDie();
  EXPECT_DOUBLE_EQ(implicit.best.fitness.score,
                   explicit_run.best.fitness.score);
  EXPECT_TRUE(implicit.best_data.SameCodes(explicit_run.best_data));
  ASSERT_EQ(implicit.history.size(), explicit_run.history.size());
}

TEST(StrategySessionTest, StrategySpecsRunEndToEnd) {
  api::JobSpec spec;
  spec.source.kind = api::SourceSpec::Kind::kSynthetic;
  spec.source.has_inline_profile = true;
  spec.source.profile = datagen::UniformTestProfile("t2", 120, {8, 6, 10});
  spec.ga.generations = 15;
  spec.seeds.master = 7;
  spec.outputs.history = true;

  api::Session session;
  spec.strategy.name = "steady_state";
  spec.strategy.params = {{"lambda", "4"}};
  auto steady = std::move(session.Run(spec)).ValueOrDie();
  EXPECT_EQ(steady.history.size(), 15u);
  EXPECT_EQ(steady.history.front().evaluations % 4, 0);

  spec.strategy.name = "islands";
  spec.strategy.params = {{"islands", "2"}, {"migration_interval", "5"}};
  auto islands = std::move(session.Run(spec)).ValueOrDie();
  EXPECT_EQ(islands.history.size(), 30u);  // 2 islands x 15 generations
  int tagged = 0;
  for (const auto& record : islands.history) tagged += record.island == 1;
  EXPECT_EQ(tagged, 15);
}

}  // namespace
}  // namespace evolve
}  // namespace evocat
