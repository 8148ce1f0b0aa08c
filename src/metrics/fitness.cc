#include "metrics/fitness.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/string_utils.h"
#include "common/timer.h"
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
          "Segment applies that crossed a measure's full-rebuild threshold "
          "(the incremental path degenerated to a rebuild).",
          {{"measure", measure.key}}));
    }
    return out;
  }();
  return counters[index];
}

obs::Gauge* ProbeFractionGauge(size_t index) {
  static const std::vector<obs::Gauge*> gauges = [] {
    std::vector<obs::Gauge*> out;
    for (const FitnessMeasure& measure : FitnessMeasures()) {
      out.push_back(obs::MetricsRegistry::Global().GetGauge(
          "evocat_delta_plane_probe_fraction_ppm",
          "Rebuild fraction the bind-time probe chose, in parts per million "
          "of the protected cells.",
          {{"measure", measure.key}}));
    }
    return out;
  }();
  return gauges[index];
}

/// The rebuild fraction `options` pin for the measure keyed `key`: a
/// per-measure override beats the global one; 0 means unpinned.
double PinnedFraction(const FitnessEvaluator::Options& options,
                      const char* key) {
  double fraction = options.delta_rebuild_fraction;
  for (const auto& [measure, value] : options.measure_rebuild_fractions) {
    if (ToLower(measure) == key) fraction = value;
  }
  return fraction;
}

/// A no-op segment: `rows` distinct rows, one cell each, old == new (the
/// current code), so applying it exercises the real per-row incremental
/// machinery without changing any state observably — apply + revert leaves
/// the score bitwise where it was.
SegmentDelta NoOpSegment(const Dataset& masked, const std::vector<int>& attrs,
                         int rows) {
  SegmentDelta segment;
  int64_t n = masked.num_rows();
  int64_t stride = std::max<int64_t>(1, n / rows);
  int attr = attrs.front();
  for (int64_t row = 0; row < n && segment.num_cells() < rows; row += stride) {
    int32_t code = masked.Code(row, attr);
    segment.Append(row, attr, code, code);
  }
  return segment;
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
                            MeasureRegistry::Global().Create(measure.name));
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
  if (options.delta_rebuild_fraction < 0.0 ||
      options.delta_rebuild_fraction > 1.0) {
    return Status::Invalid(
        "delta_rebuild_fraction must be in [0, 1] (0 keeps the per-measure "
        "defaults), got ",
        options.delta_rebuild_fraction);
  }
  for (const auto& [name, fraction] : options.measure_rebuild_fractions) {
    if (!MeasureRegistry::Global().Contains(name)) {
      return Status::Invalid("measure_rebuild_fractions: unknown measure '",
                             name, "'");
    }
    if (fraction <= 0.0 || fraction > 1.0) {
      return Status::Invalid("measure_rebuild_fractions[", name,
                             "] must be in (0, 1], got ", fraction);
    }
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
    slot.pinned_fraction = PinnedFraction(options, measure.key);
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
  // Per-measure cost model: the state's own default rebuild fraction,
  // unless the options pin one.
  for (const Slot& slot : slots_) {
    std::unique_ptr<MeasureState> measure_state = slot.bound->BindState(masked);
    measure_state->set_total_protected_cells(total_cells);
    if (slot.pinned_fraction > 0.0) {
      measure_state->set_rebuild_fraction(slot.pinned_fraction);
    }
    state->states_.push_back(std::move(measure_state));
  }
  if (options_.probe_rebuild_fractions) {
    ProbeAndApplyFractions(masked, state.get(), total_cells);
  }
  state->breakdown_ =
      Fold([&](size_t i) { return state->states_[i]->Score(); });
  state->prev_breakdown_ = state->breakdown_;
  num_evaluations_.fetch_add(1, std::memory_order_relaxed);
  return state;
}

void FitnessEvaluator::ProbeAndApplyFractions(const Dataset& masked,
                                              FitnessState* state,
                                              int64_t total_cells) const {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  if (!probed_) {
    // Time the two cost-model legs per measure with no-op segments: a spread
    // batch forced down the incremental path (threshold pinned to infinity)
    // gives the per-cell apply cost, a single cell with threshold 1 gives
    // the full-rebuild cost. Apply + revert pairs leave each state bitwise
    // untouched, and ApplySegment is called directly so the probe never
    // shows up in the delta/revert counters or num_evaluations.
    constexpr int kProbeRows = 48;
    constexpr int kReps = 2;
    SegmentDelta spread = NoOpSegment(masked, attrs_, kProbeRows);
    SegmentDelta single = NoOpSegment(masked, attrs_, 1);
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].pinned_fraction > 0.0) continue;
      MeasureState* s = state->states_[i].get();
      auto fastest = [&](const SegmentDelta& segment) {
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < kReps; ++rep) {
          Timer timer;
          s->ApplySegment(masked, segment);
          s->RevertSegment();
          best = std::min(best, timer.ElapsedSeconds());
        }
        return best;
      };
      s->set_full_rebuild_threshold(std::numeric_limits<int64_t>::max());
      double t_inc = fastest(spread);
      s->set_full_rebuild_threshold(1);
      double t_rebuild = fastest(single);
      s->set_full_rebuild_threshold(0);
      // Crossover point: the batch size (as a fraction of the protected
      // cells) where per-cell incremental work equals one rebuild. Timer
      // underflow (either leg below clock resolution) degrades to 1.0 —
      // "rebuilds are free here", the cell-scoped measures' default.
      double per_cell =
          t_inc / static_cast<double>(std::max<int64_t>(1, spread.num_cells()));
      double denom = per_cell * static_cast<double>(total_cells);
      double fraction =
          denom > 0.0 && std::isfinite(t_rebuild) ? t_rebuild / denom : 1.0;
      fraction = std::min(1.0, std::max(0.01, fraction));
      slots_[i].probed_fraction = fraction;
      ProbeFractionGauge(slots_[i].index)
          ->Set(static_cast<int64_t>(std::llround(fraction * 1e6)));
    }
    probed_ = true;
  }
  // Every bind (including the first) adopts the cached probe verdicts;
  // pinned slots keep whatever BindState already set.
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].probed_fraction > 0.0) {
      state->states_[i]->set_rebuild_fraction(slots_[i].probed_fraction);
    }
  }
}

std::vector<std::pair<std::string, double>>
FitnessEvaluator::probed_rebuild_fractions() const {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  std::vector<std::pair<std::string, double>> out;
  for (const Slot& slot : slots_) {
    if (slot.probed_fraction > 0.0) {
      out.emplace_back(FitnessMeasures()[slot.index].key, slot.probed_fraction);
    }
  }
  return out;
}

void FitnessState::ApplyDelta(const Dataset& masked_after,
                              const SegmentDelta& segment,
                              const std::atomic<bool>* cancel) {
  prev_breakdown_ = breakdown_;
  DeltaAppliesCounter()->Increment();
  // Heavy segments evaluate the independent measures concurrently (disjoint
  // states, fixed fold order ⇒ schedule-independent results); small
  // deltas stay serial — the per-measure updates are then cheaper than the
  // fork/join would be. The rebuild-fallback counters (telemetry only) name
  // the measures that will treat this batch as a full rebuild: the same
  // comparison the states make inside ApplySegment.
  const int64_t cells = segment.num_cells();
  bool heavy = cells >= parallel_segment_cells_;
  const bool count_fallbacks = obs::MetricsEnabled();
  for (size_t i = 0; i < states_.size(); ++i) {
    if (cells < states_[i]->full_rebuild_threshold()) continue;
    heavy = true;
    if (count_fallbacks) {
      RebuildFallbackCounter(evaluator_->slots_[i].index)->Increment();
    }
  }
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  if (heavy && states_.size() > 1) {
    ParallelFor(0, static_cast<int64_t>(states_.size()), [&](int64_t i) {
      if (cancelled()) return;
      states_[static_cast<size_t>(i)]->ApplySegment(masked_after, segment);
    });
  } else {
    for (const auto& state : states_) {
      if (cancelled()) break;
      state->ApplySegment(masked_after, segment);
    }
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
