/// \file islands.cc
/// \brief Island-model strategy: N subpopulations, ring migration.
///
/// The sorted initial population is dealt round-robin onto N islands (so
/// every island starts with a comparable quality spread). Each island runs
/// the identical per-generation step (`core::GenerationStepper`) over its own
/// subpopulation with its own RNG stream, forked deterministically from the
/// run seed — islands never share mutable state, so evolving them on the
/// work-stealing pool is bit-identical at any worker count.
/// Every `migration_interval` generations the islands synchronize at a
/// barrier and migrate along a ring: island i's best `migrants` members are
/// copied to island (i+1) mod N, replacing its worst members (the source
/// keeps its copies, so the global best can only improve). Cancellation is
/// polled inside every island's generation loop and re-checked at each
/// barrier, so a cancel lands within one generation even mid-epoch.
/// `no_improvement_window` has two semantics (the `stop_mode` parameter):
/// per_island (default) stops a stalled island alone; global watches the
/// cross-island best at epoch barriers and stops the whole run once it has
/// not improved for the window.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/timer.h"
#include "core/stepper.h"
#include "evolve/registry.h"
#include "evolve/strategy.h"

namespace evocat {
namespace evolve {

namespace {

/// Id stride between islands: each island's offspring ids live in a disjoint
/// range, so ids stay unique without a shared (order-sensitive) counter.
constexpr uint64_t kIslandIdStride = uint64_t{1} << 40;

class IslandsStrategy : public EvolutionStrategy {
 public:
  IslandsStrategy(int islands, int migration_interval, int migrants,
                  bool global_stop)
      : islands_(islands),
        migration_interval_(migration_interval),
        migrants_(migrants),
        global_stop_(global_stop) {}

  std::string name() const override { return "islands"; }

  Result<core::EvolutionResult> Run(
      const metrics::FitnessEvaluator* evaluator,
      const core::GaConfig& config, std::vector<core::Individual> initial,
      const std::atomic<bool>* cancel) const override;

 private:
  int islands_;
  int migration_interval_;
  int migrants_;
  /// `no_improvement_window` semantics: false = per island (an island that
  /// stalls for the window stops alone), true = global (the run stops once
  /// the cross-island best has not improved for the window, evaluated at
  /// migration-epoch barriers).
  bool global_stop_;
};

/// Everything one island owns; no two islands share any of it.
struct Island {
  core::Population population;
  core::EvolutionStats stats;
  std::vector<core::GenerationRecord> history;
  Rng rng{0};
  uint64_t next_id = 0;
  double best_score = 0.0;
  int stale_generations = 0;
  bool stopped = false;  ///< per-island no_improvement_window early stop
};

Result<core::EvolutionResult> IslandsStrategy::Run(
    const metrics::FitnessEvaluator* evaluator, const core::GaConfig& config,
    std::vector<core::Individual> initial,
    const std::atomic<bool>* cancel) const {
  const size_t n_islands = static_cast<size_t>(islands_);
  EVOCAT_RETURN_NOT_OK(
      core::ValidateRunInputs(evaluator, config, initial, 2 * n_islands));
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("run canceled before the first generation");
  }

  Timer run_timer;
  core::EvolutionResult result;

  EVOCAT_RETURN_NOT_OK(core::EvaluateInitialPopulation(
      evaluator, &initial, &result.stats.initial_eval_seconds, cancel));

  uint64_t next_id = 0;
  for (auto& individual : initial) individual.id = next_id++;

  // Deal the sorted seeds round-robin: island k receives members k, k+N,
  // k+2N, ... so each island starts with a top-to-bottom quality spread and
  // the split is independent of island count parity.
  std::stable_sort(initial.begin(), initial.end(),
                   [](const core::Individual& a, const core::Individual& b) {
                     return a.score() < b.score();
                   });
  std::vector<Island> islands(n_islands);
  for (size_t j = 0; j < initial.size(); ++j) {
    islands[j % n_islands].population.members().push_back(
        std::move(initial[j]));
  }

  // Per-island RNG streams forked from the run seed in island order: the
  // fork sequence (and therefore every island's stream) is a pure function
  // of the seed, never of thread timing.
  Rng master(config.seed);
  for (size_t k = 0; k < n_islands; ++k) {
    Island& island = islands[k];
    island.rng = master.Fork();
    island.next_id = next_id + kIslandIdStride * static_cast<uint64_t>(k);
    island.best_score = island.population.MinScore();
  }

  std::vector<std::unique_ptr<core::GenerationStepper>> steppers;
  steppers.reserve(n_islands);
  for (size_t k = 0; k < n_islands; ++k) {
    steppers.push_back(std::make_unique<core::GenerationStepper>(
        evaluator, config, &islands[k].population, &islands[k].rng,
        &islands[k].stats, &islands[k].next_id, cancel));
  }

  // Global stop mode: the stagnation window watches the cross-island best
  // at epoch barriers instead of each island privately.
  double run_best = 1e100;
  for (const Island& island : islands) {
    run_best = std::min(run_best, island.best_score);
  }
  int global_stale = 0;

  int completed = 0;
  while (completed < config.generations) {
    const int chunk = std::min(migration_interval_,
                               config.generations - completed);

    // --- Epoch: every island advances `chunk` generations. -----------------
    ParallelFor(0, static_cast<int64_t>(n_islands), [&](int64_t idx) {
      Island& island = islands[static_cast<size_t>(idx)];
      if (island.stopped) return;
      for (int g = 0; g < chunk; ++g) {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
          return;
        }
        core::GenerationRecord record =
            steppers[static_cast<size_t>(idx)]->Step(completed + g + 1);
        record.island = static_cast<int>(idx);
        island.history.push_back(record);
        if (record.min_score < island.best_score - 1e-12) {
          island.best_score = record.min_score;
          island.stale_generations = 0;
        } else {
          ++island.stale_generations;
        }
        if (!global_stop_ && config.no_improvement_window > 0 &&
            island.stale_generations >= config.no_improvement_window) {
          island.stopped = true;
          return;
        }
      }
    });

    // --- Barrier: cancellation observed by any island stops the run. -------
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("run canceled at generation ", completed + 1,
                               " of ", config.generations, " (", n_islands,
                               " islands)");
    }
    completed += chunk;

    if (global_stop_ && config.no_improvement_window > 0) {
      double current = 1e100;
      for (const Island& island : islands) {
        current = std::min(current, island.population.MinScore());
      }
      if (current < run_best - 1e-12) {
        run_best = current;
        global_stale = 0;
      } else {
        global_stale += chunk;
      }
      if (global_stale >= config.no_improvement_window) break;
    }

    bool all_stopped = true;
    for (const Island& island : islands) all_stopped &= island.stopped;
    if (all_stopped) break;

    // --- Ring migration (serial, snapshot-based, deterministic). -----------
    if (completed < config.generations && migrants_ > 0 && n_islands > 1) {
      std::vector<std::vector<core::Individual>> outgoing(n_islands);
      for (size_t k = 0; k < n_islands; ++k) {
        const core::Population& population = islands[k].population;
        size_t count = std::min<size_t>(static_cast<size_t>(migrants_),
                                        population.size() - 1);
        for (size_t j = 0; j < count; ++j) {
          core::Individual migrant;
          migrant.data = population[j].data.Clone();
          migrant.fitness = population[j].fitness;
          migrant.origin = population[j].origin;
          migrant.id = population[j].id;
          // The migrant needs a delta state of its own (one
          // evaluation-equivalent): the source keeps its member's state.
          migrant.eval_state = evaluator->BindState(migrant.data);
          outgoing[k].push_back(std::move(migrant));
        }
      }
      for (size_t k = 0; k < n_islands; ++k) {
        size_t target = (k + 1) % n_islands;
        core::Population& population = islands[target].population;
        size_t count = std::min(outgoing[k].size(), population.size() - 1);
        for (size_t j = 0; j < count; ++j) {
          // Replace the target's worst members (population stays sorted
          // ascending between steps).
          population[population.size() - 1 - j] = std::move(outgoing[k][j]);
        }
        population.SortByScore();
      }
    }
  }

  // --- Merge: one run-level result over every island. ----------------------
  for (size_t k = 0; k < n_islands; ++k) {
    Island& island = islands[k];
    MergeStats(island.stats, &result.stats);
    result.history.insert(result.history.end(), island.history.begin(),
                          island.history.end());
    for (auto& member : island.population.members()) {
      member.eval_state.reset();
      result.population.members().push_back(std::move(member));
    }
  }
  result.population.SortByScore();
  result.stats.total_seconds = run_timer.ElapsedSeconds();
  return result;
}

}  // namespace

void RegisterIslandsStrategy(StrategyRegistry* registry) {
  Status status = registry->Register(
      "islands",
      [](const ParamMap& params)
          -> Result<std::unique_ptr<EvolutionStrategy>> {
        ParamReader reader("islands", params);
        int islands = reader.GetInt("islands", 4, 1, 256);
        int interval = reader.GetInt("migration_interval", 25, 1);
        int migrants = reader.GetInt("migrants", 1, 0);
        std::string stop_mode = reader.GetString("stop_mode", "per_island");
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        if (stop_mode != "per_island" && stop_mode != "global") {
          return Status::Invalid(
              "islands.stop_mode must be per_island or global, got '",
              stop_mode, "'");
        }
        return std::unique_ptr<EvolutionStrategy>(new IslandsStrategy(
            islands, interval, migrants, stop_mode == "global"));
      });
  (void)status;
}

}  // namespace evolve
}  // namespace evocat
