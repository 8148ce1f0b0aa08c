/// \file strategy.h
/// \brief Pluggable evolution strategies over the paper's GA step.
///
/// A strategy decides *how* the per-generation step (core::GenerationStepper)
/// is scheduled over a population: the paper's one-offspring-at-a-time
/// generational loop, the same loop with lambda offspring batches per step
/// (steady-state), or an island model evolving N subpopulations in parallel
/// with ring migration. Strategies are constructed by name + parameter map
/// through `StrategyRegistry` (evolve/registry.h), which is how a JobSpec's
/// `strategy` object selects one declaratively.
///
/// Contract (every strategy):
///   - offspring are scored through their parents' `metrics::FitnessState`
///     (bound by `core::EvaluateInitialPopulation`), and the parallel parts
///     always fan out through `ParallelFor`; the worker count is that of the
///     scheduler the run executes on;
///   - deterministic given `config.seed`: the same seed produces bit-identical
///     results on 1 or N workers, under any scheduling of the parallel parts;
///   - `cancel` is polled at least once per generation/step and through
///     island barriers; a canceled run returns `Status::Cancelled`;
///   - the returned population carries no incremental-evaluation states.

#ifndef EVOCAT_EVOLVE_STRATEGY_H_
#define EVOCAT_EVOLVE_STRATEGY_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/individual.h"
#include "metrics/fitness.h"

namespace evocat {
namespace evolve {

/// \brief One way of evolving a population under the paper's operators.
class EvolutionStrategy {
 public:
  virtual ~EvolutionStrategy() = default;

  /// \brief Canonical registry name ("generational", "steady_state", ...).
  virtual std::string name() const = 0;

  /// \brief Evolves `initial` (fitness fields may be unset) under `config`.
  ///
  /// `cancel` (optional) is flipped from another thread for cooperative
  /// cancellation. `config.generations` is the per-population generation
  /// budget (each island runs that many generations under the islands
  /// strategy; a steady-state step counts as one generation).
  virtual Result<core::EvolutionResult> Run(
      const metrics::FitnessEvaluator* evaluator,
      const core::GaConfig& config, std::vector<core::Individual> initial,
      const std::atomic<bool>* cancel) const = 0;
};

/// \brief The single-population strategy named `name`:
/// `core::EvolutionEngine` with `lambda` offspring batches per generation
/// ("generational" is lambda 1, "steady_state" its `lambda` parameter).
std::unique_ptr<EvolutionStrategy> NewEngineStrategy(std::string name,
                                                     int lambda);

/// \brief Merges island/step substats into one run-level aggregate
/// (sums counters and per-phase seconds; `total_seconds` is the caller's
/// wall clock, not a sum, so it is left untouched).
void MergeStats(const core::EvolutionStats& from, core::EvolutionStats* into);

}  // namespace evolve
}  // namespace evocat

#endif  // EVOCAT_EVOLVE_STRATEGY_H_
