/// \file individual.h
/// \brief GA individuals (protected files) and the population container.
///
/// Following the paper's genotype encoding, an individual *is* a protected
/// data file — no binary encoding; genes are the categorical values of the
/// protected attributes. Fitness is the evaluated IL/DR breakdown.

#ifndef EVOCAT_CORE_INDIVIDUAL_H_
#define EVOCAT_CORE_INDIVIDUAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "metrics/fitness.h"

namespace evocat {
namespace core {

/// \brief One candidate protection: the masked file plus its fitness.
struct Individual {
  Dataset data;
  metrics::FitnessBreakdown fitness;
  /// Provenance: the masking method label for seeds, or the producing
  /// genetic operator for offspring (e.g. "mutation<pram(retain=0.30)>").
  std::string origin;
  /// Unique id within a run (assigned by the engine).
  uint64_t id = 0;
  /// Incremental evaluation state for `data`, which scores this member's
  /// offspring. Engine-managed: bound by `EvaluateInitialPopulation`, handed
  /// to each accepted offspring, and null outside a run (runs return their
  /// populations without states).
  std::shared_ptr<metrics::FitnessState> eval_state;

  double score() const { return fitness.score; }
};

/// \brief Population of individuals kept sorted by ascending score
/// (best first), as required by the leader-group selection.
class Population {
 public:
  Population() = default;
  explicit Population(std::vector<Individual> members)
      : members_(std::move(members)) {}

  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  Individual& operator[](size_t i) { return members_[i]; }
  const Individual& operator[](size_t i) const { return members_[i]; }

  std::vector<Individual>& members() { return members_; }
  const std::vector<Individual>& members() const { return members_; }

  /// \brief Stable-sorts members by ascending score (best first).
  void SortByScore();

  /// \brief Best (lowest-score) individual; population must be sorted.
  const Individual& best() const { return members_.front(); }
  /// \brief Worst (highest-score) individual; population must be sorted.
  const Individual& worst() const { return members_.back(); }

  /// \brief Scores of all members, in member order.
  std::vector<double> Scores() const;

  double MinScore() const;
  double MeanScore() const;
  double MaxScore() const;

 private:
  std::vector<Individual> members_;
};

}  // namespace core
}  // namespace evocat

#endif  // EVOCAT_CORE_INDIVIDUAL_H_
