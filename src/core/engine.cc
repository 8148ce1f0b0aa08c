#include "core/engine.h"

#include <utility>

#include "common/timer.h"
#include "core/stepper.h"

namespace evocat {
namespace core {

const char* OperatorKindToString(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kMutation:
      return "mutation";
    case OperatorKind::kCrossover:
      return "crossover";
  }
  return "?";
}

Status EvolutionEngine::ValidateInitial(
    const std::vector<Individual>& initial) const {
  return ValidateRunInputs(evaluator_, config_, initial, 2);
}

// The loop body lives in core::GenerationStepper (core/stepper.h) so the
// islands strategy can drive the identical step over its own populations and
// RNG streams; this function is the single-population schedule around it.
Result<EvolutionResult> EvolutionEngine::Run(
    std::vector<Individual> initial, const ProgressCallback& callback,
    const std::atomic<bool>* cancel) const {
  EVOCAT_RETURN_NOT_OK(ValidateInitial(initial));
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("run canceled before the first generation");
  }

  Timer run_timer;
  EvolutionResult result;

  EVOCAT_RETURN_NOT_OK(EvaluateInitialPopulation(
      evaluator_, &initial, &result.stats.initial_eval_seconds, cancel));

  uint64_t next_id = 0;
  for (auto& individual : initial) individual.id = next_id++;

  Population population(std::move(initial));
  population.SortByScore();

  Rng rng(config_.seed);
  GenerationStepper stepper(evaluator_, config_, &population, &rng,
                            &result.stats, &next_id, cancel, lambda_);

  double best_score = population.MinScore();
  int stale_generations = 0;

  for (int gen = 1; gen <= config_.generations; ++gen) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled("run canceled at generation ", gen, " of ",
                               config_.generations);
    }
    GenerationRecord record = stepper.Step(gen);
    result.history.push_back(record);
    if (callback) callback(record, population);

    // Optional early stop on best-score stagnation.
    if (record.min_score < best_score - 1e-12) {
      best_score = record.min_score;
      stale_generations = 0;
    } else {
      ++stale_generations;
    }
    if (config_.no_improvement_window > 0 &&
        stale_generations >= config_.no_improvement_window) {
      break;
    }
  }

  result.stats.total_seconds = run_timer.ElapsedSeconds();
  // The delta states exist to serve the run; returning them would pin
  // megabytes per member and a pointer into the (caller-owned, possibly
  // shorter-lived) evaluator.
  for (auto& member : population.members()) member.eval_state.reset();
  result.population = std::move(population);
  return result;
}

}  // namespace core
}  // namespace evocat
