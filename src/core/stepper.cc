#include "core/stepper.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace evocat {
namespace core {

namespace {

/// Telemetry handles, resolved once per series. Counter bumps are relaxed
/// atomics and never branch on data values, so instrumentation cannot
/// perturb the run (the off-vs-on oracle test holds this to bit-identity).
obs::Counter* GenerationsCounter(bool mutation) {
  static obs::Counter* mutation_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "evocat_engine_generations_total",
          "Engine generations by the operator the alter draw picked.",
          {{"op", "mutation"}});
  static obs::Counter* crossover_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "evocat_engine_generations_total",
          "Engine generations by the operator the alter draw picked.",
          {{"op", "crossover"}});
  return mutation ? mutation_counter : crossover_counter;
}

obs::Counter* AcceptedCounter(bool mutation) {
  static obs::Counter* mutation_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "evocat_engine_offspring_accepted_total",
          "Offspring that replaced their parent, by operator.",
          {{"op", "mutation"}});
  static obs::Counter* crossover_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "evocat_engine_offspring_accepted_total",
          "Offspring that replaced their parent, by operator.",
          {{"op", "crossover"}});
  return mutation ? mutation_counter : crossover_counter;
}

obs::Histogram* GenerationSecondsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "evocat_engine_generation_seconds",
          "Wall time per engine generation (operator + evaluation + sort).");
  return histogram;
}

}  // namespace

std::string BaseOrigin(const std::string& origin) {
  struct Prefix {
    const char* text;
    size_t length;
  };
  static constexpr Prefix kPrefixes[] = {{"mutation<", 9}, {"cross<", 6}};
  std::string base = origin;
  while (true) {
    bool stripped = false;
    for (const Prefix& prefix : kPrefixes) {
      if (base.size() > prefix.length && base.back() == '>' &&
          base.compare(0, prefix.length, prefix.text) == 0) {
        base = base.substr(prefix.length, base.size() - prefix.length - 1);
        stripped = true;
      }
    }
    if (!stripped) return base;
  }
}

Status EvaluateInitialPopulation(const metrics::FitnessEvaluator* evaluator,
                                 std::vector<Individual>* initial,
                                 double* eval_seconds,
                                 const std::atomic<bool>* cancel) {
  Timer init_timer;
  // Embarrassingly parallel. Binding a state costs about one evaluation and
  // seeds the per-member delta machinery in the same pass. Cancellation is
  // polled per iteration (not just between engine generations), so a cancel
  // during a large population's initial sweep takes effect within one
  // member bind.
  ParallelFor(0, static_cast<int64_t>(initial->size()), [&](int64_t i) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
    Individual& individual = (*initial)[static_cast<size_t>(i)];
    // A member that arrives with a bound state (the session binds seeds for
    // its initial-cloud report) keeps it — rebinding would double the most
    // expensive pass of a large-population run.
    if (individual.eval_state == nullptr) {
      individual.eval_state = evaluator->BindState(individual.data);
    }
    individual.fitness = individual.eval_state->breakdown();
  });
  if (eval_seconds != nullptr) *eval_seconds = init_timer.ElapsedSeconds();
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled(
        "run canceled during initial population evaluation");
  }
  return Status::OK();
}

Status ValidateRunInputs(const metrics::FitnessEvaluator* evaluator,
                         const GaConfig& config,
                         const std::vector<Individual>& initial,
                         size_t min_members) {
  if (evaluator == nullptr) {
    return Status::Invalid("engine has no fitness evaluator");
  }
  if (initial.size() < min_members) {
    return Status::Invalid("initial population needs >= ", min_members,
                           " individuals, got ", initial.size());
  }
  if (config.generations < 0) {
    return Status::Invalid("generations must be >= 0");
  }
  if (config.mutation_rate < 0.0 || config.mutation_rate > 1.0) {
    return Status::Invalid("mutation_rate must be in [0, 1], got ",
                           config.mutation_rate);
  }
  if (config.leader_group_size < 1) {
    return Status::Invalid("leader_group_size must be >= 1, got ",
                           config.leader_group_size);
  }
  const Dataset& original = evaluator->original();
  for (const auto& individual : initial) {
    EVOCAT_RETURN_NOT_OK(metrics::ValidateComparable(original, individual.data,
                                                     evaluator->attrs()));
  }
  return Status::OK();
}

GenerationStepper::GenerationStepper(const metrics::FitnessEvaluator* evaluator,
                                     const GaConfig& config,
                                     Population* population, Rng* rng,
                                     EvolutionStats* stats, uint64_t* next_id,
                                     const std::atomic<bool>* cancel,
                                     int lambda)
    : evaluator_(evaluator),
      config_(config),
      population_(population),
      rng_(rng),
      stats_(stats),
      next_id_(next_id),
      cancel_(cancel),
      lambda_(lambda),
      selection_(config.selection),
      layout_(evaluator->attrs(), evaluator->original().num_rows()),
      mutate_(layout_, config.mutation_excludes_current),
      cross_(layout_) {}

// Deterministic crowding means an offspring only ever competes with its own
// parent, so the parent's fitness state can be advanced in place and
// reverted on rejection — no state cloning per step.
GenerationRecord GenerationStepper::Step(int generation) {
  Population& population = *population_;
  Rng& rng = *rng_;

  obs::TraceSpan trace_span("engine.generation");
  Timer gen_timer;
  GenerationRecord record;
  record.generation = generation;

  // Paper Algorithm 1: a uniform `alter` draw picks the operator, planned
  // `lambda_` times against the step-start population.
  const bool do_mutation = rng.UniformDouble() < config_.mutation_rate;
  record.op = do_mutation ? OperatorKind::kMutation : OperatorKind::kCrossover;
  const std::vector<double> scores = population.Scores();
  std::vector<Offspring> plan;
  plan.reserve(static_cast<size_t>(do_mutation ? lambda_ : 2 * lambda_));
  if (do_mutation) {
    for (int k = 0; k < lambda_; ++k) {
      Offspring child;
      child.slot = selection_.Select(scores, &rng);
      const Individual& parent = population[child.slot];
      child.individual.data = parent.data.Clone();  // COW share
      auto mutation = mutate_.Apply(&child.individual.data, &rng);
      if (mutation.new_code != mutation.old_code) {
        child.deltas.Append(mutation.row, mutation.attr, mutation.old_code,
                            mutation.new_code);
      }
      child.individual.origin = "mutation<" + BaseOrigin(parent.origin) + ">";
      child.individual.id = (*next_id_)++;
      plan.push_back(std::move(child));
    }
  } else {
    // First parent uniformly from the leader group (the Nb best; the
    // population is sorted ascending), mate proportionally from everyone.
    const size_t leaders = std::min<size_t>(
        static_cast<size_t>(config_.leader_group_size), population.size());
    for (int k = 0; k < lambda_; ++k) {
      const size_t i1 = rng.UniformIndex(leaders);
      const size_t i2 = selection_.Select(scores, &rng);
      Offspring child1, child2;
      auto segment =
          cross_.Apply(population[i1].data, population[i2].data,
                       &child1.individual.data, &child2.individual.data, &rng);
      child1.slot = i1;
      child2.slot = i2;
      child1.deltas = std::move(segment.deltas1);
      child2.deltas = std::move(segment.deltas2);
      child1.individual.origin =
          "cross<" + BaseOrigin(population[i1].origin) + ">";
      child2.individual.origin =
          "cross<" + BaseOrigin(population[i2].origin) + ">";
      child1.individual.id = (*next_id_)++;
      child2.individual.id = (*next_id_)++;
      // Self-mating (i1 == i2) swaps a segment between two copies of one
      // genome, so both offspring equal their parent: neither can beat it,
      // and neither is scored (the record still counts both).
      child1.scored = child2.scored = i1 != i2;
      plan.push_back(std::move(child1));
      plan.push_back(std::move(child2));
    }
  }
  record.evaluations = static_cast<int>(plan.size());

  // Offspring of one slot share its parent's state, so they score serially
  // in plan order; distinct slots touch disjoint states and fan out. The
  // slots always overlap: a heavy leg (a rebuild-sized segment) does not hog
  // or starve the pool, because nested regions — the per-measure fan-out
  // inside FitnessState::ApplyDelta and every measure's own row loops —
  // submit to the shared scheduler instead of serializing.
  std::vector<std::vector<size_t>> slot_offspring;
  {
    std::vector<int> group_of_slot(population.size(), -1);
    for (size_t p = 0; p < plan.size(); ++p) {
      if (!plan[p].scored) continue;
      int& group = group_of_slot[plan[p].slot];
      if (group < 0) {
        group = static_cast<int>(slot_offspring.size());
        slot_offspring.emplace_back();
      }
      slot_offspring[static_cast<size_t>(group)].push_back(p);
    }
  }
  Timer eval_timer;
  ParallelFor(0, static_cast<int64_t>(slot_offspring.size()), [&](int64_t g) {
    const std::vector<size_t>& offspring =
        slot_offspring[static_cast<size_t>(g)];
    metrics::FitnessState& state =
        *population[plan[offspring.front()].slot].eval_state;
    for (size_t j = 0; j < offspring.size(); ++j) {
      if (j > 0) state.Revert();
      Offspring& child = plan[offspring[j]];
      state.ApplyDelta(child.individual.data, child.deltas, cancel_);
      child.individual.fitness = state.breakdown();
    }
    plan[offspring.back()].holds_state = true;
  });
  const double eval_seconds = eval_timer.ElapsedSeconds();

  // Replacement, serial in plan order: each offspring competes with its
  // slot's current occupant (elitist for mutation, deterministic crowding
  // for crossover) and survives only if strictly better.
  std::vector<char> replaced(population.size(), 0);
  for (Offspring& child : plan) {
    Individual& occupant = population[child.slot];
    if (!child.scored || child.individual.score() >= occupant.score()) {
      continue;
    }
    if (replaced[child.slot]) {
      // The parent's state went to an earlier offspring of this step.
      child.individual.eval_state =
          evaluator_->BindState(child.individual.data);
    } else {
      if (!child.holds_state) {
        // The state holds a later offspring of the same slot.
        occupant.eval_state->Revert();
        occupant.eval_state->ApplyDelta(child.individual.data, child.deltas,
                                        cancel_);
      }
      child.individual.eval_state = std::move(occupant.eval_state);
    }
    occupant = std::move(child.individual);
    replaced[child.slot] = 1;
    record.accepted = true;
    ++(do_mutation ? stats_->accepted_mutations
                   : stats_->accepted_crossovers);
  }
  // A rejected offspring left applied hands its parent's state back.
  for (const Offspring& child : plan) {
    if (child.holds_state && !replaced[child.slot]) {
      population[child.slot].eval_state->Revert();
    }
  }

  population.SortByScore();

  record.min_score = population.MinScore();
  record.mean_score = population.MeanScore();
  record.max_score = population.MaxScore();
  record.eval_seconds = eval_seconds;
  record.total_seconds = gen_timer.ElapsedSeconds();
  stats_->offspring_evaluated += record.evaluations;
  if (do_mutation) {
    ++stats_->mutation_generations;
    stats_->mutation_eval_seconds += record.eval_seconds;
    stats_->mutation_total_seconds += record.total_seconds;
  } else {
    ++stats_->crossover_generations;
    stats_->crossover_eval_seconds += record.eval_seconds;
    stats_->crossover_total_seconds += record.total_seconds;
  }
  GenerationsCounter(do_mutation)->Increment();
  if (record.accepted) AcceptedCounter(do_mutation)->Increment();
  GenerationSecondsHistogram()->Observe(record.total_seconds);
  return record;
}

}  // namespace core
}  // namespace evocat
