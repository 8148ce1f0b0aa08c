/// \file steady_state.cc
/// \brief Steady-state strategy: lambda offspring per step, evaluated
/// concurrently through the incremental delta path.
///
/// Each step generalizes one generation of paper Algorithm 1: a single
/// uniform draw picks the operator, which is then instantiated `lambda`
/// times against the step-start population (lambda proportionally selected
/// mutation parents, or lambda leader/mate crossover pairs). All offspring
/// plans are drawn *serially* from the run RNG — the plan never depends on
/// thread timing — and only the fitness evaluations fan out: offspring are
/// grouped by parent slot and the groups evaluate in parallel, each group
/// replaying ApplyDelta/Revert against its own parent's FitnessState.
/// Replacement is serial in plan order (elitist for mutation, deterministic
/// crowding for crossover, always against the slot's *current* occupant), so
/// results are bit-identical on 1 or N threads.

#include <algorithm>
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

/// One planned offspring: the child itself plus how it was derived.
struct PlannedChild {
  core::Individual individual;
  /// Parent slot the child competes with (and whose FitnessState serves the
  /// delta evaluation).
  size_t slot = 0;
  /// Segment batch changed relative to the parent at `slot`.
  metrics::SegmentDelta deltas;
};

class SteadyStateStrategy : public EvolutionStrategy {
 public:
  explicit SteadyStateStrategy(int lambda) : lambda_(lambda) {}

  std::string name() const override { return "steady_state"; }

  Result<core::EvolutionResult> Run(
      const metrics::FitnessEvaluator* evaluator,
      const core::GaConfig& config, std::vector<core::Individual> initial,
      const std::atomic<bool>* cancel) const override;

 private:
  int lambda_;
};

Result<core::EvolutionResult> SteadyStateStrategy::Run(
    const metrics::FitnessEvaluator* evaluator, const core::GaConfig& config,
    std::vector<core::Individual> initial,
    const std::atomic<bool>* cancel) const {
  EVOCAT_RETURN_NOT_OK(core::ValidateRunInputs(evaluator, config, initial, 2));
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("run canceled before the first step");
  }

  Timer run_timer;
  core::EvolutionResult result;
  result.history.reserve(static_cast<size_t>(config.generations));

  EVOCAT_RETURN_NOT_OK(core::EvaluateInitialPopulation(
      evaluator, &initial, &result.stats.initial_eval_seconds, cancel));

  uint64_t next_id = 0;
  for (auto& individual : initial) individual.id = next_id++;

  core::Population population(std::move(initial));
  population.SortByScore();

  Rng rng(config.seed);
  core::SelectionPolicy selection(config.selection);
  core::GenomeLayout layout(evaluator->attrs(),
                            evaluator->original().num_rows());
  core::MutationOperator mutate(layout, config.mutation_excludes_current);
  core::CrossoverOperator cross(layout);

  double best_score = population.MinScore();
  int stale_steps = 0;

  for (int step = 1; step <= config.generations; ++step) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("run canceled at step ", step, " of ",
                               config.generations);
    }
    Timer step_timer;
    core::GenerationRecord record;
    record.generation = step;

    // --- Plan phase (serial): one operator draw, lambda instantiations. ---
    bool do_mutation = rng.UniformDouble() < config.mutation_rate;
    std::vector<double> scores = population.Scores();
    std::vector<PlannedChild> plan;
    plan.reserve(static_cast<size_t>(do_mutation ? lambda_ : 2 * lambda_));

    if (do_mutation) {
      record.op = core::OperatorKind::kMutation;
      for (int k = 0; k < lambda_; ++k) {
        PlannedChild child;
        child.slot = selection.Select(scores, &rng);
        child.individual.data = population[child.slot].data.Clone();
        auto mutation = mutate.Apply(&child.individual.data, &rng);
        if (mutation.new_code != mutation.old_code) {
          child.deltas.Append(mutation.row, mutation.attr, mutation.old_code,
                              mutation.new_code);
        }
        child.individual.origin =
            "mutation<" + core::BaseOrigin(population[child.slot].origin) + ">";
        child.individual.id = next_id++;
        plan.push_back(std::move(child));
      }
    } else {
      record.op = core::OperatorKind::kCrossover;
      size_t leaders = std::min<size_t>(
          static_cast<size_t>(config.leader_group_size), population.size());
      for (int k = 0; k < lambda_; ++k) {
        size_t i1 = rng.UniformIndex(leaders);
        size_t i2 = selection.Select(scores, &rng);
        PlannedChild child1, child2;
        auto segment =
            cross.Apply(population[i1].data, population[i2].data,
                        &child1.individual.data, &child2.individual.data, &rng);
        child1.slot = i1;
        child2.slot = i2;
        child1.deltas = std::move(segment.deltas1);
        child2.deltas = std::move(segment.deltas2);
        child1.individual.origin =
            "cross<" + core::BaseOrigin(population[i1].origin) + ">";
        child2.individual.origin =
            "cross<" + core::BaseOrigin(population[i2].origin) + ">";
        child1.individual.id = next_id++;
        child2.individual.id = next_id++;
        plan.push_back(std::move(child1));
        plan.push_back(std::move(child2));
      }
    }

    // --- Evaluation phase (parallel over parent slots). ---
    // Children of the same slot share that parent's FitnessState, so each
    // slot's children evaluate serially (ApplyDelta -> breakdown -> Revert
    // hands the state back untouched); distinct slots touch disjoint states
    // and fan out across the pool. Grouping preserves plan order within a
    // slot, which keeps the evaluation schedule deterministic.
    std::vector<size_t> slot_of_group;          // group index -> slot
    std::vector<std::vector<size_t>> groups;    // group index -> plan indices
    {
      std::vector<int> group_of_slot(population.size(), -1);
      for (size_t p = 0; p < plan.size(); ++p) {
        size_t slot = plan[p].slot;
        if (group_of_slot[slot] < 0) {
          group_of_slot[slot] = static_cast<int>(groups.size());
          slot_of_group.push_back(slot);
          groups.emplace_back();
        }
        groups[static_cast<size_t>(group_of_slot[slot])].push_back(p);
      }
    }
    // Groups always overlap: a heavy group's inner loops (rebuild-sized
    // segments) fan out through nested work stealing instead of serializing.
    Timer eval_timer;
    ParallelFor(0, static_cast<int64_t>(groups.size()), [&](int64_t g) {
      // Cancel is polled per group so a flipped flag stops a big step within
      // one slot's worth of evaluations.
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
      size_t slot = slot_of_group[static_cast<size_t>(g)];
      auto& state = population[slot].eval_state;
      for (size_t p : groups[static_cast<size_t>(g)]) {
        PlannedChild& child = plan[p];
        state->ApplyDelta(child.individual.data, child.deltas, cancel);
        child.individual.fitness = state->breakdown();
        state->Revert();
      }
    });
    record.eval_seconds = eval_timer.ElapsedSeconds();
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("run canceled at step ", step, " of ",
                               config.generations);
    }
    record.evaluations = static_cast<int>(plan.size());

    // --- Replacement phase (serial, plan order). ---
    // Each child competes with its slot's *current* occupant: the elitist /
    // deterministic-crowding rule of the generational loop, applied in the
    // order the plan was drawn. Once a slot has been replaced this step its
    // parent state is gone, so a second accepted child binds fresh.
    std::vector<char> replaced(population.size(), 0);
    for (auto& child : plan) {
      size_t slot = child.slot;
      if (child.individual.score() >= population[slot].score()) continue;
      if (!replaced[slot]) {
        auto& state = population[slot].eval_state;
        state->ApplyDelta(child.individual.data, child.deltas);
        child.individual.eval_state = std::move(state);
      } else {
        child.individual.eval_state =
            evaluator->BindState(child.individual.data);
      }
      population[slot] = std::move(child.individual);
      replaced[slot] = 1;
      record.accepted = true;
      if (record.op == core::OperatorKind::kMutation) {
        ++result.stats.accepted_mutations;
      } else {
        ++result.stats.accepted_crossovers;
      }
    }

    population.SortByScore();

    record.min_score = population.MinScore();
    record.mean_score = population.MeanScore();
    record.max_score = population.MaxScore();
    record.total_seconds = step_timer.ElapsedSeconds();
    result.stats.offspring_evaluated += record.evaluations;
    if (record.op == core::OperatorKind::kMutation) {
      ++result.stats.mutation_generations;
      result.stats.mutation_eval_seconds += record.eval_seconds;
      result.stats.mutation_total_seconds += record.total_seconds;
    } else {
      ++result.stats.crossover_generations;
      result.stats.crossover_eval_seconds += record.eval_seconds;
      result.stats.crossover_total_seconds += record.total_seconds;
    }
    result.history.push_back(record);

    if (record.min_score < best_score - 1e-12) {
      best_score = record.min_score;
      stale_steps = 0;
    } else {
      ++stale_steps;
    }
    if (config.no_improvement_window > 0 &&
        stale_steps >= config.no_improvement_window) {
      break;
    }
  }

  result.stats.total_seconds = run_timer.ElapsedSeconds();
  for (auto& member : population.members()) member.eval_state.reset();
  result.population = std::move(population);
  return result;
}

}  // namespace

void RegisterSteadyStateStrategy(StrategyRegistry* registry) {
  Status status = registry->Register(
      "steady_state",
      [](const ParamMap& params)
          -> Result<std::unique_ptr<EvolutionStrategy>> {
        ParamReader reader("steady_state", params);
        int64_t lambda = reader.GetInt("lambda", 8);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        if (lambda < 1 || lambda > 4096) {
          return Status::Invalid("steady_state.lambda must be in [1, 4096], "
                                 "got ", lambda);
        }
        return std::unique_ptr<EvolutionStrategy>(
            new SteadyStateStrategy(static_cast<int>(lambda)));
      });
  (void)status;
}

}  // namespace evolve
}  // namespace evocat
