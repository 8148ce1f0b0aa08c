/// \file runner.h
/// \brief End-to-end experiment pipeline reproducing the paper's §3.
///
/// A run (1) generates the synthetic dataset, (2) builds the initial
/// population of protections, (3) optionally removes the best fraction
/// (robustness experiment §3.3), (4) evolves the population, and (5) returns
/// the initial/final (IL, DR) clouds plus the score-evolution history —
/// exactly the data behind the paper's dispersion and evolution figures.

#ifndef EVOCAT_EXPERIMENTS_RUNNER_H_
#define EVOCAT_EXPERIMENTS_RUNNER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "experiments/dataset_case.h"
#include "metrics/fitness.h"

namespace evocat {
namespace experiments {

/// \brief Experiment knobs; defaults reproduce the paper's first experiment.
struct ExperimentOptions {
  /// Score aggregation: kMean = Eq. 1 (experiment 1), kMax = Eq. 2 (2, 3).
  metrics::ScoreAggregation aggregation = metrics::ScoreAggregation::kMean;
  /// GA generation budget.
  int generations = 400;
  /// Fraction of the best initial individuals removed before evolution
  /// (0.05 / 0.10 in the robustness experiment §3.3).
  double remove_best_fraction = 0.0;
  /// Seeds: dataset sampling, masking methods, evolution.
  uint64_t data_seed = 0xDA7A;
  uint64_t protection_seed = 0x9A5C;
  uint64_t ga_seed = 42;
  /// GA parameters (paper defaults).
  double mutation_rate = 0.5;
  int leader_group_size = 10;
  core::SelectionStrategy selection = core::SelectionStrategy::kInverseScore;
  bool mutation_excludes_current = true;
  /// Measure configuration; `aggregation` above overrides its aggregation.
  metrics::FitnessEvaluator::Options fitness;
};

/// \brief (IL, DR, score) of one population member, with provenance.
struct IndividualSummary {
  std::string origin;
  double il = 0.0;
  double dr = 0.0;
  double score = 0.0;
};

/// \brief Min/mean/max triple of a population's scores.
struct ScoreTriple {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

/// \brief Everything a paper figure/table needs from one run.
struct ExperimentResult {
  std::string dataset;
  ExperimentOptions options;
  /// Initial population (after any best-removal), evaluated.
  std::vector<IndividualSummary> initial;
  /// Final population, same order convention (sorted by score).
  std::vector<IndividualSummary> final_population;
  /// Per-generation min/mean/max trajectory.
  std::vector<core::GenerationRecord> history;
  core::EvolutionStats stats;
  ScoreTriple initial_scores;
  ScoreTriple final_scores;

  /// \brief Percentage improvement (start -> end) of a score statistic.
  ///
  /// Undefined for non-positive start scores — the ratio would claim "no
  /// improvement" (or a nonsensical sign) — so those return NaN; reports
  /// print "n/a" for NaN rather than a number.
  static double ImprovementPercent(double start, double end);
};

/// \brief Runs one experiment end to end.
Result<ExperimentResult> RunExperiment(const DatasetCase& dataset_case,
                                       const ExperimentOptions& options);

}  // namespace experiments
}  // namespace evocat

#endif  // EVOCAT_EXPERIMENTS_RUNNER_H_
