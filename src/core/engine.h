/// \file engine.h
/// \brief The paper's evolutionary algorithm (Algorithm 1).
///
/// Per generation, a uniform draw picks mutation (one proportionally selected
/// parent, elitist replacement) or crossover (one parent uniformly from the
/// Nb-best leader group, the mate proportionally from the whole population,
/// deterministic-crowding replacement: each offspring competes with its own
/// parent). The population stays sorted by ascending score. Lower score is
/// better throughout. The paper re-scores every offspring in full; here each
/// offspring is scored from its parent's `metrics::FitnessState` (apply the
/// operator's delta, revert on rejection), which tracks
/// `FitnessEvaluator::Evaluate` to 1e-9. The step itself is
/// `core::GenerationStepper` (core/stepper.h); with `lambda` > 1 each
/// generation plans that many offspring batches (the steady_state strategy).

#ifndef EVOCAT_CORE_ENGINE_H_
#define EVOCAT_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "core/individual.h"
#include "core/operators.h"
#include "core/selection.h"
#include "metrics/fitness.h"

namespace evocat {
namespace core {

/// \brief Which operator a generation executed.
enum class OperatorKind { kMutation, kCrossover };

const char* OperatorKindToString(OperatorKind kind);

/// \brief Engine configuration (defaults reproduce the paper).
struct GaConfig {
  /// Number of generations to run.
  int generations = 400;
  /// Probability that a generation performs mutation (paper: 0.5, the
  /// `alter` draw against the 0.5 delimiter).
  double mutation_rate = 0.5;
  /// Leader group size Nb for crossover's first parent.
  int leader_group_size = 10;
  /// Parent-selection strategy (see selection.h for the Eq. 3 discussion).
  SelectionStrategy selection = SelectionStrategy::kInverseScore;
  /// Whether mutation draws from the domain minus the current category.
  bool mutation_excludes_current = true;
  /// RNG seed for the whole run.
  uint64_t seed = 42;
  /// Early stop after this many generations without best-score improvement
  /// (0 disables; the paper runs a fixed generation budget).
  int no_improvement_window = 0;
};

/// \brief Per-generation record (drives the paper's evolution figures).
struct GenerationRecord {
  int generation = 0;
  /// Which island produced this record (0 for single-population strategies;
  /// the islands strategy stamps its subpopulation index here, so one
  /// history vector carries every island's convergence trajectory).
  int island = 0;
  OperatorKind op = OperatorKind::kMutation;
  double min_score = 0.0;
  double mean_score = 0.0;
  double max_score = 0.0;
  /// Offspring planned this generation: lambda for mutation, 2*lambda for
  /// crossover (1 and 2 in the paper's loop). Self-mating offspring count,
  /// though they are not scored.
  int evaluations = 0;
  /// Whether any offspring displaced its parent.
  bool accepted = false;
  /// Wall time spent in fitness evaluation this generation.
  double eval_seconds = 0.0;
  /// Total wall time of the generation.
  double total_seconds = 0.0;
};

/// \brief Aggregate run counters (drives the paper's timing table).
struct EvolutionStats {
  int64_t mutation_generations = 0;
  int64_t crossover_generations = 0;
  int64_t accepted_mutations = 0;
  int64_t accepted_crossovers = 0;
  int64_t offspring_evaluated = 0;
  double mutation_eval_seconds = 0.0;
  double crossover_eval_seconds = 0.0;
  double mutation_total_seconds = 0.0;
  double crossover_total_seconds = 0.0;
  double initial_eval_seconds = 0.0;
  double total_seconds = 0.0;
};

/// \brief Outcome of a run: final population, history, counters.
struct EvolutionResult {
  Population population;
  std::vector<GenerationRecord> history;
  EvolutionStats stats;
};

/// \brief Runs the paper's GA over an initial population of protections.
class EvolutionEngine {
 public:
  /// \brief Observer invoked after every generation.
  using ProgressCallback =
      std::function<void(const GenerationRecord&, const Population&)>;

  /// \param evaluator bound fitness evaluator; must outlive the engine.
  /// \param lambda offspring batches per generation (>= 1; the paper's
  ///        loop is 1).
  EvolutionEngine(const metrics::FitnessEvaluator* evaluator, GaConfig config,
                  int lambda = 1)
      : evaluator_(evaluator), config_(config), lambda_(lambda) {}

  /// \brief Evolves `initial` (fitness fields may be unset; they are
  /// evaluated up front, in parallel) for the configured generations.
  ///
  /// `cancel` (optional) is polled between generations; once it reads true
  /// the run stops and returns `Status::Cancelled` naming the generation it
  /// reached. Long-running callers (the evocatd job server) flip it from
  /// another thread.
  Result<EvolutionResult> Run(std::vector<Individual> initial,
                              const ProgressCallback& callback = nullptr,
                              const std::atomic<bool>* cancel = nullptr) const;

  const GaConfig& config() const { return config_; }

 private:
  Status ValidateInitial(const std::vector<Individual>& initial) const;

  const metrics::FitnessEvaluator* evaluator_;
  GaConfig config_;
  int lambda_;
};

}  // namespace core
}  // namespace evocat

#endif  // EVOCAT_CORE_ENGINE_H_
