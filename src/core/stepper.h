/// \file stepper.h
/// \brief The paper's per-generation evolution step, the one step every
/// strategy (src/evolve/) runs.
///
/// `GenerationStepper` owns no population and no RNG — it advances the
/// caller's `Population` in place, drawing from the caller's `Rng` and
/// accumulating into the caller's `EvolutionStats`. One stepper drives the
/// engine's loop (`EvolutionEngine::Run`, which runs the generational and
/// steady_state strategies); the island strategy runs one stepper per
/// subpopulation, each with its own forked RNG stream, which is what makes
/// island evolution deterministic under any thread schedule.

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

/// \brief Advances one population by one step of the paper's GA.
///
/// Exactly Algorithm 1, with `lambda` offspring batches per step: a uniform
/// draw picks mutation (`lambda` proportionally selected parents, elitist
/// replacement) or crossover (`lambda` pairs of a leader-group first parent
/// and a proportional mate, deterministic-crowding replacement), then the
/// population is re-sorted. `lambda` 1 is the paper's generational step; the
/// steady_state strategy runs more. The caller owns population, RNG, stats and
/// the id counter; the stepper requires that `population` stays sorted
/// between calls (which `Step` maintains) and that every member carries its
/// bound `eval_state` (`EvaluateInitialPopulation` binds them; `Step` hands
/// each accepted offspring a state).
///
/// The offspring are planned serially from the RNG against the step-start
/// population, so the plan never depends on thread timing. Each offspring is
/// scored by `ApplyDelta` on its parent's state: one slot's offspring in
/// plan order (reverting the previous one first), distinct slots in
/// parallel. Replacement is serial in plan order, against each slot's
/// current occupant. The last offspring scored on a slot stays applied, so
/// an accepted one keeps the state as it is; a rejected one is reverted.
/// Self-mating (both crossover parents the same member) yields two copies of
/// the parent, which are counted in `evaluations` and rejected unscored.
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
  /// \param lambda offspring batches per step (>= 1).
  GenerationStepper(const metrics::FitnessEvaluator* evaluator,
                    const GaConfig& config, Population* population, Rng* rng,
                    EvolutionStats* stats, uint64_t* next_id,
                    const std::atomic<bool>* cancel = nullptr, int lambda = 1);

  /// \brief Runs one step and returns its record (`record.generation` is
  /// set to `generation`; `record.island` stays 0 — island strategies stamp
  /// it afterwards).
  GenerationRecord Step(int generation);

  const GenomeLayout& layout() const { return layout_; }

 private:
  /// One planned offspring and the parent slot it competes with.
  struct Offspring {
    Individual individual;
    size_t slot = 0;
    /// Cells changed relative to the parent at `slot`.
    metrics::SegmentDelta deltas;
    /// False for self-mating offspring, which equal their parent.
    bool scored = true;
    /// True for the slot's last scored offspring, left applied to the
    /// parent's state.
    bool holds_state = false;
  };

  const metrics::FitnessEvaluator* evaluator_;
  GaConfig config_;
  Population* population_;
  Rng* rng_;
  EvolutionStats* stats_;
  uint64_t* next_id_;
  const std::atomic<bool>* cancel_;
  int lambda_;

  SelectionPolicy selection_;
  GenomeLayout layout_;
  MutationOperator mutate_;
  CrossoverOperator cross_;
};

}  // namespace core
}  // namespace evocat

#endif  // EVOCAT_CORE_STEPPER_H_
