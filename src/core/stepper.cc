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
                                     const std::atomic<bool>* cancel)
    : config_(config),
      population_(population),
      rng_(rng),
      stats_(stats),
      next_id_(next_id),
      cancel_(cancel),
      selection_(config.selection),
      layout_(evaluator->attrs(), evaluator->original().num_rows()),
      mutate_(layout_, config.mutation_excludes_current),
      cross_(layout_) {}

// Deterministic crowding means an offspring only ever competes with its own
// parent, so the parent's fitness state can be advanced in place and
// reverted on rejection — no state cloning per generation.
GenerationRecord GenerationStepper::Step(int generation) {
  Population& population = *population_;
  Rng& rng = *rng_;

  obs::TraceSpan trace_span("engine.generation");
  Timer gen_timer;
  GenerationRecord record;
  record.generation = generation;

  // Paper Algorithm 1: a uniform `alter` draw picks the operator.
  bool do_mutation = rng.UniformDouble() < config_.mutation_rate;
  double eval_seconds = 0.0;

  if (do_mutation) {
    record.op = OperatorKind::kMutation;
    size_t parent_idx = selection_.Select(population.Scores(), &rng);
    Individual child;
    child.data = population[parent_idx].data.Clone();  // COW share
    auto mutation = mutate_.Apply(&child.data, &rng);
    child.origin = "mutation<" + BaseOrigin(population[parent_idx].origin) + ">";
    child.id = (*next_id_)++;

    auto& parent_state = population[parent_idx].eval_state;
    Timer eval_timer;
    metrics::SegmentDelta deltas;
    if (mutation.new_code != mutation.old_code) {
      deltas.Append(mutation.row, mutation.attr, mutation.old_code,
                    mutation.new_code);
    }
    parent_state->ApplyDelta(child.data, deltas, cancel_);
    child.fitness = parent_state->breakdown();
    eval_seconds = eval_timer.ElapsedSeconds();
    record.evaluations = 1;

    // Elitist replacement: the offspring survives only if strictly better.
    if (child.score() < population[parent_idx].score()) {
      child.eval_state = std::move(parent_state);  // state is the child's
      population[parent_idx] = std::move(child);
      record.accepted = true;
      ++stats_->accepted_mutations;
    } else {
      parent_state->Revert();
    }
    ++stats_->mutation_generations;
  } else {
    record.op = OperatorKind::kCrossover;
    // First parent uniformly from the leader group (the Nb best; the
    // population is sorted ascending), mate proportionally from everyone.
    size_t leaders = std::min<size_t>(
        static_cast<size_t>(config_.leader_group_size), population.size());
    size_t i1 = rng.UniformIndex(leaders);
    size_t i2 = selection_.Select(population.Scores(), &rng);

    Individual child1, child2;
    auto segment = cross_.Apply(population[i1].data, population[i2].data,
                                &child1.data, &child2.data, &rng);
    child1.origin = "cross<" + BaseOrigin(population[i1].origin) + ">";
    child2.origin = "cross<" + BaseOrigin(population[i2].origin) + ">";
    child1.id = (*next_id_)++;
    child2.id = (*next_id_)++;

    // Self-mating (i1 == i2) swaps a segment between two copies of one
    // genome, so both offspring equal their parent: neither can beat it, and
    // neither is scored (the record still counts both).
    record.evaluations = 2;
    if (i1 != i2) {
      // The legs always overlap: a heavy leg (a rebuild-sized segment) does
      // not hog or starve the pool, because nested regions — the per-measure
      // fan-out inside FitnessState::ApplyDelta and every measure's own row
      // loops — submit to the shared scheduler instead of serializing.
      Timer eval_timer;
      ParallelFor(0, 2, [&](int64_t leg) {
        Individual& child = leg == 0 ? child1 : child2;
        auto& state = population[leg == 0 ? i1 : i2].eval_state;
        const auto& deltas = leg == 0 ? segment.deltas1 : segment.deltas2;
        state->ApplyDelta(child.data, deltas, cancel_);
        child.fitness = state->breakdown();
      });
      eval_seconds = eval_timer.ElapsedSeconds();

      // Deterministic crowding: each offspring competes with its own parent.
      if (child1.score() < population[i1].score()) {
        child1.eval_state = std::move(population[i1].eval_state);
        population[i1] = std::move(child1);
        record.accepted = true;
        ++stats_->accepted_crossovers;
      } else {
        population[i1].eval_state->Revert();
      }
      if (child2.score() < population[i2].score()) {
        child2.eval_state = std::move(population[i2].eval_state);
        population[i2] = std::move(child2);
        record.accepted = true;
        ++stats_->accepted_crossovers;
      } else {
        population[i2].eval_state->Revert();
      }
    }
    ++stats_->crossover_generations;
  }

  population.SortByScore();

  record.min_score = population.MinScore();
  record.mean_score = population.MeanScore();
  record.max_score = population.MaxScore();
  record.eval_seconds = eval_seconds;
  record.total_seconds = gen_timer.ElapsedSeconds();
  stats_->offspring_evaluated += record.evaluations;
  if (record.op == OperatorKind::kMutation) {
    stats_->mutation_eval_seconds += record.eval_seconds;
    stats_->mutation_total_seconds += record.total_seconds;
  } else {
    stats_->crossover_eval_seconds += record.eval_seconds;
    stats_->crossover_total_seconds += record.total_seconds;
  }
  const bool mutation_op = record.op == OperatorKind::kMutation;
  GenerationsCounter(mutation_op)->Increment();
  if (record.accepted) AcceptedCounter(mutation_op)->Increment();
  GenerationSecondsHistogram()->Observe(record.total_seconds);
  return record;
}

}  // namespace core
}  // namespace evocat
