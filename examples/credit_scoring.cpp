// Credit-scoring data sharing with a custom threat model.
//
// A bank shares a German-Credit-like file with an external analytics
// partner. Its threat model differs from the default: attribute disclosure
// via rank intervals (ID) is considered harmless for these coarse financial
// buckets — what matters is record re-identification (DBRL, PRL, RSRL). The
// paper's §4 highlights that the GA adapts to any fitness; this example
// shows how: configure the measure set, evolve with an early-stopping
// engine, and watch progress through the generation callback.
//
// Run:  ./build/example_credit_scoring

#include <cstdio>
#include <iostream>

#include "common/logging.h"
#include "core/engine.h"
#include "datagen/generator.h"
#include "metrics/fitness.h"
#include "protection/population_builder.h"

using namespace evocat;

namespace {

int Fail(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return 1;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);

  // German-Credit-like data; quasi-identifiers from the paper.
  auto profile = datagen::GermanCreditProfile();
  auto original = datagen::Generate(profile, 404);
  if (!original.ok()) return Fail(original.status());
  auto attrs_result =
      datagen::ProtectedAttributeIndices(profile, original.ValueOrDie());
  if (!attrs_result.ok()) return Fail(attrs_result.status());
  const auto& attrs = attrs_result.ValueOrDie();

  // Custom threat model: drop interval disclosure from DR; keep the three
  // linkage attacks. Balance still enforced via the max score.
  metrics::FitnessEvaluator::Options fitness_options;
  fitness_options.aggregation = metrics::ScoreAggregation::kMax;
  fitness_options.use_id = false;
  fitness_options.rsrl_assumed_p_percent = 10.0;  // sharper assumed attack
  auto evaluator = metrics::FitnessEvaluator::Create(
      original.ValueOrDie(), attrs, fitness_options);
  if (!evaluator.ok()) return Fail(evaluator.status());

  // Seed with the paper's German/Flare method mix (104 protections).
  auto protections = protection::BuildProtections(
      original.ValueOrDie(), attrs, protection::GermanFlarePopulationSpec(),
      /*seed=*/11);
  if (!protections.ok()) return Fail(protections.status());
  std::vector<core::Individual> seeds;
  for (auto& file : protections.ValueOrDie()) {
    core::Individual individual;
    individual.data = std::move(file.data);
    individual.origin = std::move(file.method_label);
    seeds.push_back(std::move(individual));
  }

  core::GaConfig config;
  config.generations = 3000;
  config.no_improvement_window = 400;  // stop when converged
  config.seed = 31;
  core::EvolutionEngine engine(evaluator.ValueOrDie().get(), config);

  std::printf("evolving (max %d generations, early stop after %d stale)...\n",
              config.generations, config.no_improvement_window);
  int last_logged = 0;
  auto run = engine.Run(std::move(seeds),
                        [&](const core::GenerationRecord& record,
                            const core::Population& population) {
                          if (record.generation - last_logged >= 250) {
                            last_logged = record.generation;
                            std::printf(
                                "  gen %4d: min=%.2f mean=%.2f max=%.2f\n",
                                record.generation, record.min_score,
                                record.mean_score, record.max_score);
                          }
                          (void)population;
                        });
  if (!run.ok()) return Fail(run.status());
  const auto& evolution = run.ValueOrDie();

  const auto& best = evolution.population.best();
  std::printf("\nstopped after %zu generations\n", evolution.history.size());
  std::printf("best release candidate: score=%.2f IL=%.2f DR=%.2f\n",
              best.fitness.score, best.fitness.il, best.fitness.dr);
  std::printf("  linkage risks: DBRL=%.1f%% PRL=%.1f%% RSRL=%.1f%% "
              "(ID excluded by threat model)\n",
              best.fitness.dbrl, best.fitness.prl, best.fitness.rsrl);
  std::printf("  provenance: %s\n", best.origin.c_str());
  return 0;
}
