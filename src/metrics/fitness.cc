#include "metrics/fitness.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "metrics/registry.h"
#include "obs/metrics.h"

namespace evocat {
namespace metrics {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

ParamMap NoParams(const FitnessEvaluator::Options&) { return {}; }

obs::Counter* DeltaAppliesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_delta_applies_total",
      "Segment-delta batches folded into fitness states.");
  return counter;
}

obs::Counter* DeltaRevertsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_delta_reverts_total",
      "Rejected offspring whose fitness state was rolled back.");
  return counter;
}

/// Per-measure series, all registered on first use and indexed by table
/// row; the label is the measure's key.
obs::Counter* RebuildFallbackCounter(size_t index) {
  static const std::vector<obs::Counter*> counters = [] {
    std::vector<obs::Counter*> out;
    for (const FitnessMeasure& measure : FitnessMeasures()) {
      out.push_back(obs::MetricsRegistry::Global().GetCounter(
          "evocat_rebuild_fallbacks_total",
          "Segment applies that recomputed a measure's state from scratch.",
          {{"measure", measure.key}}));
    }
    return out;
  }();
  return counters[index];
}

}  // namespace

const std::vector<FitnessMeasure>& FitnessMeasures() {
  using Options = FitnessEvaluator::Options;
  static const std::vector<FitnessMeasure> table = {
      {"CTBIL", "ctbil", &Options::use_ctbil, &FitnessBreakdown::ctbil,
       [](const Options& o) -> ParamMap {
         return {{"max_dimension", std::to_string(o.ctbil_max_dimension)}};
       }},
      {"DBIL", "dbil", &Options::use_dbil, &FitnessBreakdown::dbil, NoParams},
      {"EBIL", "ebil", &Options::use_ebil, &FitnessBreakdown::ebil, NoParams},
      {"ID", "id", &Options::use_id, &FitnessBreakdown::id,
       [](const Options& o) -> ParamMap {
         return {{"window_percent", FormatDouble(o.id_window_percent)}};
       }},
      {"DBRL", "dbrl", &Options::use_dbrl, &FitnessBreakdown::dbrl, NoParams},
      {"PRL", "prl", &Options::use_prl, &FitnessBreakdown::prl,
       [](const Options& o) -> ParamMap {
         return {{"em_iterations", std::to_string(o.prl_em_iterations)}};
       }},
      {"RSRL", "rsrl", &Options::use_rsrl, &FitnessBreakdown::rsrl,
       [](const Options& o) -> ParamMap {
         return {{"assumed_p_percent", FormatDouble(o.rsrl_assumed_p_percent)}};
       }},
  };
  return table;
}

Status CheckMeasureSelection(const FitnessEvaluator::Options& options) {
  bool has_il = false, has_dr = false;
  for (const FitnessMeasure& measure : FitnessMeasures()) {
    if (!(options.*measure.enabled)) continue;
    EVOCAT_ASSIGN_OR_RETURN(std::unique_ptr<Measure> instance,
                            MeasureRegistry::Global().Create(
                                measure.name, measure.params(options)));
    (instance->Kind() == MeasureKind::kInformationLoss ? has_il : has_dr) =
        true;
  }
  if (!has_il) {
    return Status::Invalid("at least one information-loss measure is required");
  }
  if (!has_dr) {
    return Status::Invalid("at least one disclosure-risk measure is required");
  }
  return Status::OK();
}

const char* ScoreAggregationToString(ScoreAggregation aggregation) {
  switch (aggregation) {
    case ScoreAggregation::kMean:
      return "mean";
    case ScoreAggregation::kMax:
      return "max";
    case ScoreAggregation::kEuclidean:
      return "euclidean";
    case ScoreAggregation::kWeighted:
      return "weighted";
  }
  return "?";
}

double AggregateScore(ScoreAggregation aggregation, double il, double dr,
                      double il_weight) {
  switch (aggregation) {
    case ScoreAggregation::kMean:
      return (il + dr) / 2.0;
    case ScoreAggregation::kMax:
      return std::max(il, dr);
    case ScoreAggregation::kEuclidean:
      return std::sqrt((il * il + dr * dr) / 2.0);
    case ScoreAggregation::kWeighted:
      return il_weight * il + (1.0 - il_weight) * dr;
  }
  return (il + dr) / 2.0;
}

Result<ScoreAggregation> ScoreAggregationFromString(const std::string& name) {
  for (ScoreAggregation aggregation :
       {ScoreAggregation::kMean, ScoreAggregation::kMax,
        ScoreAggregation::kEuclidean, ScoreAggregation::kWeighted}) {
    if (name == ScoreAggregationToString(aggregation)) return aggregation;
  }
  return Status::Invalid("unknown score aggregation '", name,
                         "'; expected mean|max|euclidean|weighted");
}

Result<std::unique_ptr<FitnessEvaluator>> FitnessEvaluator::Create(
    const Dataset& original, const std::vector<int>& attrs,
    const Options& options) {
  EVOCAT_RETURN_NOT_OK(ValidateComparable(original, original, attrs));
  if (options.il_weight < 0.0 || options.il_weight > 1.0) {
    return Status::Invalid("il_weight must be in [0, 1], got ",
                           options.il_weight);
  }
  EVOCAT_RETURN_NOT_OK(CheckMeasureSelection(options));

  // Measures are constructed by name through the registry — the same path a
  // JobSpec takes — so the evaluator never names a concrete measure class.
  std::unique_ptr<FitnessEvaluator> evaluator(
      new FitnessEvaluator(original, attrs, options));
  const std::vector<FitnessMeasure>& table = FitnessMeasures();
  for (size_t i = 0; i < table.size(); ++i) {
    const FitnessMeasure& measure = table[i];
    if (!(options.*measure.enabled)) continue;
    EVOCAT_ASSIGN_OR_RETURN(std::unique_ptr<Measure> instance,
                            MeasureRegistry::Global().Create(
                                measure.name, measure.params(options)));
    Slot slot;
    slot.index = i;
    slot.kind = instance->Kind();
    EVOCAT_ASSIGN_OR_RETURN(slot.bound, instance->Bind(original, attrs));
    evaluator->slots_.push_back(std::move(slot));
  }
  return evaluator;
}

template <typename ScoreOf>
FitnessBreakdown FitnessEvaluator::Fold(ScoreOf score_of) const {
  const std::vector<FitnessMeasure>& table = FitnessMeasures();
  FitnessBreakdown b;
  for (const FitnessMeasure& measure : table) b.*measure.field = kNaN;
  double il_sum = 0.0, dr_sum = 0.0;
  int il_count = 0, dr_count = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    double value = score_of(i);
    b.*table[slots_[i].index].field = value;
    if (std::isnan(value)) continue;
    if (slots_[i].kind == MeasureKind::kInformationLoss) {
      il_sum += value;
      il_count += 1;
    } else {
      dr_sum += value;
      dr_count += 1;
    }
  }
  b.il = il_count > 0 ? il_sum / il_count : 0.0;
  b.dr = dr_count > 0 ? dr_sum / dr_count : 0.0;
  b.score = Score(b.il, b.dr);
  return b;
}

FitnessBreakdown FitnessEvaluator::Evaluate(const Dataset& masked) const {
  FitnessBreakdown b =
      Fold([&](size_t i) { return slots_[i].bound->Compute(masked); });
  num_evaluations_.fetch_add(1, std::memory_order_relaxed);
  return b;
}

std::unique_ptr<FitnessState> FitnessEvaluator::BindState(
    const Dataset& masked) const {
  std::unique_ptr<FitnessState> state(new FitnessState());
  state->evaluator_ = this;
  int64_t total_cells =
      masked.num_rows() * static_cast<int64_t>(attrs_.size());
  // Per-measure concurrency pays once a segment is a meaningful share of
  // the file; single-cell mutations stay serial.
  state->parallel_segment_cells_ = std::max<int64_t>(32, total_cells / 256);
  // Each state scales its own rebuild fraction against the cell total.
  for (const Slot& slot : slots_) {
    std::unique_ptr<MeasureState> measure_state = slot.bound->BindState(masked);
    measure_state->set_total_protected_cells(total_cells);
    state->states_.push_back(std::move(measure_state));
  }
  state->breakdown_ =
      Fold([&](size_t i) { return state->states_[i]->Score(); });
  state->prev_breakdown_ = state->breakdown_;
  num_evaluations_.fetch_add(1, std::memory_order_relaxed);
  return state;
}

void FitnessState::ApplyDelta(const Dataset& masked_after,
                              const SegmentDelta& segment,
                              const std::atomic<bool>* cancel) {
  prev_breakdown_ = breakdown_;
  DeltaAppliesCounter()->Increment();
  // Heavy segments evaluate the independent measures concurrently (disjoint
  // states, fixed fold order ⇒ schedule-independent results); small
  // deltas stay serial — the per-measure updates are then cheaper than the
  // fork/join would be. A batch that reaches any state's rebuild threshold
  // counts as heavy. The rebuild-fallback counters (telemetry only) count
  // the rebuilds the states report taking, guards included.
  const int64_t cells = segment.num_cells();
  bool heavy = cells >= parallel_segment_cells_;
  for (const auto& state : states_) {
    heavy = heavy || cells >= state->full_rebuild_threshold();
  }
  const bool count_fallbacks = obs::MetricsEnabled();
  auto apply = [&](size_t i) {
    states_[i]->ApplySegment(masked_after, segment);
    if (count_fallbacks && states_[i]->rebuilt()) {
      RebuildFallbackCounter(evaluator_->slots_[i].index)->Increment();
    }
  };
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  if (heavy && states_.size() > 1) {
    ParallelFor(0, static_cast<int64_t>(states_.size()), [&](int64_t i) {
      if (!cancelled()) apply(static_cast<size_t>(i));
    });
  } else {
    for (size_t i = 0; i < states_.size() && !cancelled(); ++i) apply(i);
  }
  breakdown_ =
      evaluator_->Fold([this](size_t i) { return states_[i]->Score(); });
  evaluator_->num_evaluations_.fetch_add(1, std::memory_order_relaxed);
}

void FitnessState::Revert() {
  DeltaRevertsCounter()->Increment();
  for (const auto& state : states_) state->RevertSegment();
  breakdown_ = prev_breakdown_;
}

}  // namespace metrics
}  // namespace evocat
