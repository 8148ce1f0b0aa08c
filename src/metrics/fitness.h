/// \file fitness.h
/// \brief The paper's fitness function: IL/DR aggregation into one score.
///
/// IL is the mean of {CTBIL, DBIL, EBIL}; DR is the mean of {ID, DBRL, PRL,
/// RSRL}; the score is either `(IL + DR) / 2` (paper Eq. 1) or
/// `max(IL, DR)` (paper Eq. 2). Lower scores are better. Individual measures
/// can be disabled for ablation studies; disabled measures are excluded from
/// the averages and reported as NaN in the breakdown.
///
/// The seven measures are rows of one table, `FitnessMeasures()`: the
/// evaluator binds and folds them in table order, and the JobSpec, the
/// artifact JSON and the tools iterate the same rows instead of naming them.

#ifndef EVOCAT_METRICS_FITNESS_H_
#define EVOCAT_METRICS_FITNESS_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/result.h"
#include "metrics/measure.h"

namespace evocat {
namespace metrics {

/// \brief How IL and DR combine into the scalar fitness score.
///
/// kMean and kMax are the paper's Eq. 1 and Eq. 2. The paper's conclusion
/// proposes exploring "other ways to aggregate them"; kEuclidean and
/// kWeighted implement that future work: the quadratic mean penalizes
/// imbalance more than the mean but less than the max, and the weighted mean
/// lets a data custodian tilt the trade-off toward utility or privacy.
enum class ScoreAggregation {
  kMean,       ///< Paper Eq. 1: (IL + DR) / 2 — permits perfect trade-off.
  kMax,        ///< Paper Eq. 2: max(IL, DR) — penalizes unbalanced protections.
  kEuclidean,  ///< Quadratic mean sqrt((IL^2 + DR^2) / 2): soft balance.
  kWeighted,   ///< w * IL + (1 - w) * DR with custom weight w.
};

const char* ScoreAggregationToString(ScoreAggregation aggregation);

/// \brief Inverse of ScoreAggregationToString; rejects unknown names.
Result<ScoreAggregation> ScoreAggregationFromString(const std::string& name);

/// \brief Combines IL and DR under the chosen aggregation.
///
/// `il_weight` is only used by kWeighted (must be in [0, 1]).
double AggregateScore(ScoreAggregation aggregation, double il, double dr,
                      double il_weight = 0.5);

/// \brief Per-measure results of one fitness evaluation (0..100 each).
///
/// Disabled measures are NaN and excluded from `il` / `dr`.
struct FitnessBreakdown {
  double ctbil = 0.0;
  double dbil = 0.0;
  double ebil = 0.0;
  double id = 0.0;
  double dbrl = 0.0;
  double prl = 0.0;
  double rsrl = 0.0;
  double il = 0.0;     ///< mean of enabled information-loss measures
  double dr = 0.0;     ///< mean of enabled disclosure-risk measures
  double score = 0.0;  ///< aggregated fitness (lower is better)
};

class FitnessEvaluator;

/// \brief Incremental fitness evaluation state for one masked file.
///
/// Bundles one `MeasureState` per enabled measure. The engine keeps one per
/// population member; a GA operator's segment delta re-scores an offspring
/// in O(segment) instead of re-walking the whole file (and its O(n^2)
/// linkage attacks). `Revert` undoes the last `ApplyDelta`, which is how
/// rejected offspring hand their parent's state back untouched.
class FitnessState {
 public:
  /// \brief Current per-measure breakdown (equals a full `Evaluate` of the
  /// file last passed to ApplyDelta, within 1e-9).
  const FitnessBreakdown& breakdown() const { return breakdown_; }

  /// \brief Folds one segment batch into every measure state and refreshes
  /// the breakdown. Counts as one evaluation.
  ///
  /// For heavy segments (the batch covers a meaningful share of the
  /// protected cells, or reaches at least one enabled measure's rebuild
  /// threshold) the independent measure states evaluate concurrently; each
  /// state's own row loops additionally fan out through nested work
  /// stealing, so a heavy crossover leg saturates the pool instead of
  /// walking seven O(n²) updates serially.
  ///
  /// `cancel` (optional) is polled between (or, concurrently, before) the
  /// per-measure updates, bounding cancel latency on rebuild-sized legs by
  /// one measure's rebuild instead of all seven. After a cancel-truncated
  /// apply the state is only good for discarding — the caller must abort
  /// the run, which every engine/strategy loop does on its next poll.
  void ApplyDelta(const Dataset& masked_after, const SegmentDelta& segment,
                  const std::atomic<bool>* cancel = nullptr);

  /// \brief Undoes the most recent ApplyDelta (single level).
  void Revert();

 private:
  friend class FitnessEvaluator;
  FitnessState() = default;

  const FitnessEvaluator* evaluator_ = nullptr;
  /// Segment size (cells) from which the per-measure updates run
  /// concurrently; set by BindState from the file's protected-cell count.
  int64_t parallel_segment_cells_ = INT64_MAX;
  /// One state per enabled measure, in the evaluator's slot order.
  std::vector<std::unique_ptr<MeasureState>> states_;
  FitnessBreakdown breakdown_;
  FitnessBreakdown prev_breakdown_;
};

/// \brief Evaluates masked files against one original under the paper's
/// fitness; binds all measures once so repeated evaluation is cheap.
class FitnessEvaluator {
 public:
  /// \brief Evaluator configuration (defaults reproduce the paper).
  struct Options {
    ScoreAggregation aggregation = ScoreAggregation::kMean;
    /// Information-loss weight for ScoreAggregation::kWeighted.
    double il_weight = 0.5;
    /// CTBIL contingency-table dimension cap.
    int ctbil_max_dimension = 2;
    /// Interval-disclosure rank window (percent of records).
    double id_window_percent = 10.0;
    /// RSRL attacker's assumed rank-swapping parameter (percent).
    double rsrl_assumed_p_percent = 15.0;
    /// PRL EM sweeps.
    int prl_em_iterations = 50;
    /// Ablation switches — disabled measures leave the averages.
    bool use_ctbil = true;
    bool use_dbil = true;
    bool use_ebil = true;
    bool use_id = true;
    bool use_dbrl = true;
    bool use_prl = true;
    bool use_rsrl = true;
  };

  /// \brief Binds all enabled measures to `original` over `attrs`.
  ///
  /// `original` must outlive the evaluator. At least one IL and one DR
  /// measure must stay enabled.
  static Result<std::unique_ptr<FitnessEvaluator>> Create(
      const Dataset& original, const std::vector<int>& attrs,
      const Options& options);

  /// \brief Binds with the paper-default options.
  static Result<std::unique_ptr<FitnessEvaluator>> Create(
      const Dataset& original, const std::vector<int>& attrs) {
    return Create(original, attrs, Options());
  }

  /// \brief Evaluates one masked file (hot path; `masked` must be comparable
  /// to the original — same schema and row count).
  FitnessBreakdown Evaluate(const Dataset& masked) const;

  /// \brief Opens incremental evaluation for one masked file.
  ///
  /// The returned state's breakdown starts equal to `Evaluate(masked)` and
  /// is re-derived in O(delta) after each `ApplyDelta`. The evaluator must
  /// outlive the state. See `metrics::MeasureState` for the delta contract.
  std::unique_ptr<FitnessState> BindState(const Dataset& masked) const;

  /// \brief Aggregates an (il, dr) pair under this evaluator's options.
  double Score(double il, double dr) const {
    return AggregateScore(options_.aggregation, il, dr, options_.il_weight);
  }

  const Options& options() const { return options_; }
  const std::vector<int>& attrs() const { return attrs_; }

  /// \brief The original dataset the evaluator was bound to.
  const Dataset& original() const { return *original_; }

  /// \brief Number of `Evaluate` calls served (for the timing tables).
  int64_t num_evaluations() const { return num_evaluations_.load(); }

 private:
  friend class FitnessState;

  /// One enabled measure, in table order (which is also the fold order).
  struct Slot {
    size_t index = 0;  ///< row of FitnessMeasures()
    MeasureKind kind = MeasureKind::kInformationLoss;
    std::unique_ptr<BoundMeasure> bound;
  };

  FitnessEvaluator(const Dataset& original, std::vector<int> attrs,
                   Options options)
      : original_(&original), attrs_(std::move(attrs)), options_(options) {}

  const Dataset* original_;
  std::vector<int> attrs_;
  Options options_;
  std::vector<Slot> slots_;

  /// \brief Folds per-slot scores (`score_of(i)` for slot i) into a
  /// breakdown: disabled measures read NaN, IL and DR are the means of the
  /// non-NaN scores of their kind summed in slot order. The full and the
  /// incremental path both fold here, so they run the identical
  /// floating-point sequence.
  template <typename ScoreOf>
  FitnessBreakdown Fold(ScoreOf score_of) const;

  mutable std::atomic<int64_t> num_evaluations_{0};
};

/// \brief One measure of the fitness: its registry name and how it maps
/// onto the evaluator's options and breakdown. The measure's kind (IL or
/// DR) is not stored here; it comes from `Measure::Kind()`.
struct FitnessMeasure {
  const char* name;  ///< registry name, e.g. "CTBIL"
  const char* key;   ///< lower-case name: artifact JSON and telemetry key
  bool FitnessEvaluator::Options::*enabled;  ///< ablation switch
  double FitnessBreakdown::*field;           ///< breakdown score
  /// Registry parameters of the measure, built from the options.
  ParamMap (*params)(const FitnessEvaluator::Options& options);
};

/// \brief The seven measures in fold order: CTBIL, DBIL, EBIL, ID, DBRL,
/// PRL, RSRL.
const std::vector<FitnessMeasure>& FitnessMeasures();

/// \brief Fails unless every enabled measure accepts its parameters from
/// `options` (the registry factory's range checks) and `options` enable at
/// least one information-loss and one disclosure-risk measure (kinds by
/// `Measure::Kind()`).
Status CheckMeasureSelection(const FitnessEvaluator::Options& options);

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_FITNESS_H_
