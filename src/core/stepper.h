/// \file stepper.h
/// \brief The paper's per-generation evolution step, factored out of
/// `EvolutionEngine` so pluggable strategies (src/evolve/) can reuse it.
///
/// `GenerationStepper` owns no population and no RNG — it advances the
/// caller's `Population` in place, drawing from the caller's `Rng` and
/// accumulating into the caller's `EvolutionStats`. One stepper drives the
/// classic generational loop (`EvolutionEngine::Run`); the island strategy
/// runs one stepper per subpopulation, each with its own forked RNG stream,
/// which is what makes island evolution deterministic under any thread
/// schedule.

#ifndef EVOCAT_CORE_STEPPER_H_
#define EVOCAT_CORE_STEPPER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/individual.h"
#include "core/operators.h"
#include "core/selection.h"
#include "metrics/fitness.h"

namespace evocat {
namespace core {

/// \brief Strips operator wrappers so provenance stays "op<seed-method-label>"
/// instead of growing a nested chain across generations.
std::string BaseOrigin(const std::string& origin);

/// \brief Binds a `metrics::FitnessState` to every individual of `initial`
/// that has none (in parallel) and sets each fitness from its state.
///
/// `cancel` (optional) is polled at every loop iteration, so cancel latency
/// is bounded by one member bind even for large populations; a canceled
/// call returns `Status::Cancelled` (some members may remain unbound).
/// `eval_seconds` (optional) receives the wall time.
Status EvaluateInitialPopulation(const metrics::FitnessEvaluator* evaluator,
                                 std::vector<Individual>* initial,
                                 double* eval_seconds,
                                 const std::atomic<bool>* cancel);

/// \brief Validates a strategy/engine run's inputs (shared by the engine and
/// every evolution strategy). `min_members` is the strategy's population
/// floor (the generational loop needs 2).
Status ValidateRunInputs(const metrics::FitnessEvaluator* evaluator,
                         const GaConfig& config,
                         const std::vector<Individual>& initial,
                         size_t min_members);

/// \brief Advances one population by one generation of the paper's GA.
///
/// Exactly Algorithm 1: a uniform draw picks mutation (proportionally
/// selected parent, elitist replacement) or crossover (leader-group first
/// parent, proportional mate, deterministic-crowding replacement), then the
/// population is re-sorted. The caller owns population, RNG, stats and the
/// id counter; the stepper requires that `population` stays sorted between
/// calls (which `Step` maintains) and that every member carries its bound
/// `eval_state` (`EvaluateInitialPopulation` binds them; `Step` hands each
/// accepted offspring a state). Offspring are scored by `ApplyDelta` on
/// their parent's state and reverted on rejection; self-mating (both
/// crossover parents the same member) yields two copies of the parent, which
/// are rejected unscored.
class GenerationStepper {
 public:
  /// \param evaluator bound fitness evaluator; its attrs and record count
  ///        fix the genome layout the operators draw from.
  /// \param population evaluated, sorted population advanced in place.
  /// \param rng the run's (or island's) private RNG stream.
  /// \param stats aggregate counters accumulated across steps.
  /// \param next_id id source for offspring (unique within the run; island
  ///        strategies hand each stepper a disjoint id range).
  /// \param cancel optional run-cancel flag, polled *inside* the
  ///        per-measure delta evaluation so a rebuild-sized crossover leg
  ///        stops within one measure's rebuild (the driving loop still owns
  ///        the authoritative between-generation poll and the resulting
  ///        `Status::Cancelled`).
  GenerationStepper(const metrics::FitnessEvaluator* evaluator,
                    const GaConfig& config, Population* population, Rng* rng,
                    EvolutionStats* stats, uint64_t* next_id,
                    const std::atomic<bool>* cancel = nullptr);

  /// \brief Runs one generation and returns its record (`record.generation`
  /// is set to `generation`; `record.island` stays 0 — island strategies
  /// stamp it afterwards).
  GenerationRecord Step(int generation);

  const GenomeLayout& layout() const { return layout_; }

 private:
  GaConfig config_;
  Population* population_;
  Rng* rng_;
  EvolutionStats* stats_;
  uint64_t* next_id_;
  const std::atomic<bool>* cancel_;

  SelectionPolicy selection_;
  GenomeLayout layout_;
  MutationOperator mutate_;
  CrossoverOperator cross_;
};

}  // namespace core
}  // namespace evocat

#endif  // EVOCAT_CORE_STEPPER_H_
