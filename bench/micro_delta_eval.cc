// Micro-benchmark for the incremental (operator-delta) fitness evaluation
// subsystem, plus the engine's end-to-end throughput on it.
//
// Scenarios, on a >=1,000-record synthetic Adult file (JSON key in
// parentheses):
//   1. per-measure single-cell (mutation) re-evaluation (`measures`): full
//      Compute vs MeasureState::ApplySegment+Score, asserting the two
//      scores agree to 1e-9 and reporting the speedup (gate: DBRL >= 10x);
//   2. whole-fitness delta evaluation vs FitnessEvaluator::Evaluate
//      (`fitness`);
//   3. crossover-heavy segment batches (`crossover_segment`; the operator's
//      own uniform 2-point draw, averaging ~1/3 of the genome): the
//      measure-owned cost model (segment path) vs forcing every state to
//      rebuild per batch, per offspring evaluation + revert (gate: >= 1x);
//   4. a 12-protected-attribute PRL file (`prl_wide`): the compressed
//      pattern-histogram delta path vs full Compute and vs a forced
//      per-step rebuild (gate: >= 1x vs rebuild);
//   5. the GA engine run end to end (`engine_incremental`: generations/sec
//      and final scores).
// Every scenario also exits non-zero on a delta/full disagreement above
// 1e-9. The `counters` block records the process's delta traffic, rebuild
// fallbacks and PRL EM fits.
//
// Results are printed as CSV-ish lines and written machine-readably to
// BENCH_engine.json (override the path with EVOCAT_BENCH_JSON) so the perf
// trajectory is tracked across PRs.
//
// Usage: micro_delta_eval [--quick] [--scale] [rows] [engine_generations]
//   --quick shrinks every scenario for CI smoke jobs (and skips the hard
//   speedup gates, which assume benchmark-sized inputs).
//   --scale adds the 100k- and 1M-row scenarios (`scale_100k`, `scale_1m`:
//   each measure's single-cell delta vs a forced rebuild of the same state,
//   then a 2% and a 10% two-point crossover leg applied and reverted on the
//   measure's own path and on a forced rebuild; bit-exact scores required).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "core/operators.h"
#include "datagen/generator.h"
#include "metrics/ctbil.h"
#include "metrics/dbil.h"
#include "metrics/dbrl.h"
#include "metrics/ebil.h"
#include "metrics/fitness.h"
#include "metrics/interval_disclosure.h"
#include "metrics/prl.h"
#include "metrics/rsrl.h"
#include "protection/population_builder.h"
#include "protection/pram.h"

using namespace evocat;
using api::JsonValue;

namespace {

struct MutationStep {
  int64_t row;
  int attr;
  int32_t new_code;
};

/// Pre-drawn random single-cell mutations so both timing loops replay the
/// identical workload.
std::vector<MutationStep> DrawMutations(const Dataset& masked,
                                        const std::vector<int>& attrs,
                                        int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<MutationStep> steps;
  steps.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    MutationStep step;
    step.row = static_cast<int64_t>(
        rng.UniformIndex(static_cast<size_t>(masked.num_rows())));
    step.attr = attrs[rng.UniformIndex(attrs.size())];
    int32_t card = masked.schema().attribute(step.attr).cardinality();
    step.new_code = static_cast<int32_t>(rng.UniformInt(0, card - 1));
    steps.push_back(step);
  }
  return steps;
}

struct MeasureTiming {
  double full_eval_seconds = 0.0;
  double delta_eval_seconds = 0.0;
  double speedup = 0.0;
  double max_abs_diff = 0.0;
};

/// Times single-cell re-evaluation of one measure, full vs delta, over the
/// same mutation walk (each step: mutate, evaluate, undo).
MeasureTiming TimeMeasure(const metrics::BoundMeasure& bound, Dataset* masked,
                          const std::vector<MutationStep>& steps) {
  MeasureTiming timing;

  // Delta path (also records per-step full scores for the agreement check —
  // outside the timed sections).
  auto state = bound.BindState(*masked);
  {
    double elapsed = 0.0;
    for (const MutationStep& step : steps) {
      int32_t old_code = masked->Code(step.row, step.attr);
      masked->SetCode(step.row, step.attr, step.new_code);
      std::vector<metrics::CellDelta> deltas{
          {step.row, step.attr, old_code, step.new_code}};
      Timer timer;
      state->ApplySegment(*masked, metrics::SegmentDelta::FromCells(deltas));
      double delta_score = state->Score();
      elapsed += timer.ElapsedSeconds();
      double full_score = bound.Compute(*masked);
      timing.max_abs_diff =
          std::max(timing.max_abs_diff, std::fabs(delta_score - full_score));
      state->RevertSegment();
      masked->SetCode(step.row, step.attr, old_code);
    }
    timing.delta_eval_seconds = elapsed / static_cast<double>(steps.size());
  }

  // Full path.
  {
    double elapsed = 0.0;
    for (const MutationStep& step : steps) {
      int32_t old_code = masked->Code(step.row, step.attr);
      masked->SetCode(step.row, step.attr, step.new_code);
      Timer timer;
      volatile double score = bound.Compute(*masked);
      elapsed += timer.ElapsedSeconds();
      (void)score;
      masked->SetCode(step.row, step.attr, old_code);
    }
    timing.full_eval_seconds = elapsed / static_cast<double>(steps.size());
  }

  timing.speedup = timing.delta_eval_seconds > 0
                       ? timing.full_eval_seconds / timing.delta_eval_seconds
                       : 0.0;
  return timing;
}

std::vector<std::pair<std::string, std::unique_ptr<metrics::Measure>>>
ScaleMeasures() {
  std::vector<std::pair<std::string, std::unique_ptr<metrics::Measure>>> m;
  m.emplace_back("CTBIL", std::make_unique<metrics::CtbIl>(2));
  m.emplace_back("DBIL", std::make_unique<metrics::DbIl>());
  m.emplace_back("EBIL", std::make_unique<metrics::EbIl>());
  m.emplace_back("ID", std::make_unique<metrics::IntervalDisclosure>(10.0));
  m.emplace_back("DBRL",
                 std::make_unique<metrics::DistanceBasedRecordLinkage>());
  m.emplace_back("PRL",
                 std::make_unique<metrics::ProbabilisticRecordLinkage>(25));
  m.emplace_back("RSRL",
                 std::make_unique<metrics::RankSwappingRecordLinkage>(15.0));
  return m;
}

struct ScaleResult {
  JsonValue json = JsonValue::MakeObject();
  double max_abs_diff = 0.0;
};

/// One crossover leg of the scale scenario: a two-point segment covering
/// `percent`% of the genome, swapped in from a donor file.
struct ScaleLeg {
  int percent;
  int64_t first;
  int64_t last;
};

/// The scale scenario: the same single-cell mutation walk and the same
/// crossover legs, timed on each measure's incremental path (its own cost
/// model) and on a forced rebuild of the same state (threshold pinned to
/// one cell, so every apply recomputes from scratch). Scores must agree
/// *exactly* (diff == 0): the rebuild is the state's own from-scratch
/// build, so any difference is a delta-path bug.
ScaleResult RunScaleScenario(int64_t rows, int num_steps) {
  auto profile = datagen::AdultProfile();
  profile.num_records = rows;
  Dataset original = datagen::Generate(profile, 404).ValueOrDie();
  auto attrs =
      datagen::ProtectedAttributeIndices(profile, original).ValueOrDie();
  Rng rng(405);
  Dataset masked =
      protection::Pram(0.5).Protect(original, attrs, &rng).ValueOrDie();
  auto steps = DrawMutations(masked, attrs, num_steps, 0x5CA1E);
  Rng donor_rng(406);
  Dataset donor =
      protection::Pram(0.5).Protect(original, attrs, &donor_rng).ValueOrDie();
  core::GenomeLayout layout(attrs, rows);
  const int64_t genome = layout.Length();
  std::vector<ScaleLeg> legs;
  Rng leg_rng(407);
  for (int percent : {2, 10}) {
    int64_t length = genome * percent / 100;
    auto first =
        static_cast<int64_t>(leg_rng.UniformInt(0, genome - length));
    legs.push_back(ScaleLeg{percent, first, first + length - 1});
  }

  struct PathRun {
    double step_seconds = 0.0;        ///< mean apply + score + revert
    std::vector<double> scores;       ///< walk steps, then legs
    std::vector<double> leg_seconds;  ///< apply + score + revert per leg
    std::vector<int64_t> leg_cells;
    std::vector<bool> leg_rebuilt;
  };
  /// Runs the walk, then the legs, on one state whose rebuild threshold is
  /// pinned to `threshold` cells (0 = the measure's cost model).
  auto run_path = [&](const metrics::BoundMeasure& bound, int64_t threshold) {
    PathRun run;
    auto state = bound.BindState(masked);
    state->set_total_protected_cells(genome);
    state->set_full_rebuild_threshold(threshold);
    double elapsed = 0.0;
    for (const MutationStep& step : steps) {
      int32_t old_code = masked.Code(step.row, step.attr);
      masked.SetCode(step.row, step.attr, step.new_code);
      std::vector<metrics::CellDelta> deltas{
          {step.row, step.attr, old_code, step.new_code}};
      Timer timer;
      state->ApplySegment(masked, metrics::SegmentDelta::FromCells(deltas));
      run.scores.push_back(state->Score());
      state->RevertSegment();
      elapsed += timer.ElapsedSeconds();
      masked.SetCode(step.row, step.attr, old_code);
    }
    run.step_seconds = elapsed / static_cast<double>(steps.size());
    for (const ScaleLeg& leg : legs) {
      auto segment = core::CrossoverSegmentSwap(layout, donor, &masked,
                                                leg.first, leg.last);
      Timer timer;
      state->ApplySegment(masked, segment);
      run.scores.push_back(state->Score());
      run.leg_rebuilt.push_back(state->rebuilt());
      state->RevertSegment();
      run.leg_seconds.push_back(timer.ElapsedSeconds());
      run.leg_cells.push_back(segment.num_cells());
      for (const metrics::CellDelta& cell : segment.cells()) {
        masked.SetCode(cell.row, cell.attr, cell.old_code);
      }
    }
    return run;
  };

  ScaleResult result;
  std::printf("# scale scenario: rows=%lld\n", static_cast<long long>(rows));
  std::printf("scale_measure,rebuild_ms,delta_ms,speedup,max_abs_diff\n");
  JsonValue measures_json = JsonValue::MakeObject();
  double rebuild_total = 0.0, delta_total = 0.0;
  std::vector<std::string> leg_lines;
  for (const auto& [name, measure] : ScaleMeasures()) {
    auto bound = std::move(measure->Bind(original, attrs)).ValueOrDie();
    PathRun rebuild = run_path(*bound, /*threshold=*/1);
    PathRun delta = run_path(*bound, /*threshold=*/0);
    double diff = 0.0;
    for (size_t i = 0; i < rebuild.scores.size(); ++i) {
      diff = std::max(diff, std::fabs(rebuild.scores[i] - delta.scores[i]));
    }
    result.max_abs_diff = std::max(result.max_abs_diff, diff);
    rebuild_total += rebuild.step_seconds;
    delta_total += delta.step_seconds;
    double speedup =
        delta.step_seconds > 0 ? rebuild.step_seconds / delta.step_seconds
                               : 0.0;
    std::printf("%s,%.4f,%.4f,%.1fx,%.3g\n", name.c_str(),
                rebuild.step_seconds * 1e3, delta.step_seconds * 1e3, speedup,
                diff);
    JsonValue one = JsonValue::MakeObject();
    one.Set("rebuild_eval_seconds",
            JsonValue::MakeNumber(rebuild.step_seconds));
    one.Set("delta_eval_seconds", JsonValue::MakeNumber(delta.step_seconds));
    one.Set("speedup", JsonValue::MakeNumber(speedup));
    one.Set("max_abs_diff", JsonValue::MakeNumber(diff));
    JsonValue legs_json = JsonValue::MakeObject();
    for (size_t l = 0; l < legs.size(); ++l) {
      size_t score = steps.size() + l;
      double leg_diff =
          std::fabs(rebuild.scores[score] - delta.scores[score]);
      char line[256];
      std::snprintf(line, sizeof(line), "%s,%d%%,%lld,%.3f,%.3f,%s,%.3g",
                    name.c_str(), legs[l].percent,
                    static_cast<long long>(delta.leg_cells[l]),
                    rebuild.leg_seconds[l] * 1e3, delta.leg_seconds[l] * 1e3,
                    delta.leg_rebuilt[l] ? "rebuild" : "delta", leg_diff);
      leg_lines.push_back(line);
      JsonValue leg_json = JsonValue::MakeObject();
      leg_json.Set("cells", JsonValue::MakeInt(delta.leg_cells[l]));
      leg_json.Set("rebuild_eval_seconds",
                   JsonValue::MakeNumber(rebuild.leg_seconds[l]));
      leg_json.Set("own_path_eval_seconds",
                   JsonValue::MakeNumber(delta.leg_seconds[l]));
      leg_json.Set("own_path", JsonValue::MakeString(
                                   delta.leg_rebuilt[l] ? "rebuild" : "delta"));
      leg_json.Set("max_abs_diff", JsonValue::MakeNumber(leg_diff));
      legs_json.Set("leg_" + std::to_string(legs[l].percent) + "pct",
                    std::move(leg_json));
    }
    one.Set("legs", std::move(legs_json));
    measures_json.Set(name, std::move(one));
  }
  std::printf("scale_leg,measure,leg,cells,rebuild_ms,own_path_ms,own_path,"
              "max_abs_diff\n");
  for (const std::string& line : leg_lines) {
    std::printf("scale_leg,%s\n", line.c_str());
  }
  double speedup = delta_total > 0 ? rebuild_total / delta_total : 0.0;
  std::printf("scale_aggregate,rows=%lld,rebuild_ms=%.3f,delta_ms=%.3f,"
              "speedup=%.2fx,max_abs_diff=%.3g\n",
              static_cast<long long>(rows), rebuild_total * 1e3,
              delta_total * 1e3, speedup, result.max_abs_diff);
  result.json.Set("rows", JsonValue::MakeInt(rows));
  result.json.Set("measures", std::move(measures_json));
  result.json.Set("rebuild_eval_seconds", JsonValue::MakeNumber(rebuild_total));
  result.json.Set("delta_eval_seconds", JsonValue::MakeNumber(delta_total));
  result.json.Set("speedup", JsonValue::MakeNumber(speedup));
  result.json.Set("max_abs_diff", JsonValue::MakeNumber(result.max_abs_diff));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  bool quick = false;
  bool scale = false;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else if (std::string(argv[i]) == "--scale") {
      scale = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  int64_t rows = !positional.empty() ? std::atoll(positional[0])
                                     : (quick ? 300 : 1000);
  int engine_generations =
      positional.size() > 1 ? std::atoi(positional[1]) : (quick ? 30 : 150);

  auto profile = datagen::AdultProfile();
  profile.num_records = rows;
  Dataset original = datagen::Generate(profile, 101).ValueOrDie();
  auto attrs =
      datagen::ProtectedAttributeIndices(profile, original).ValueOrDie();
  Rng rng(7);
  Dataset masked =
      protection::Pram(0.7).Protect(original, attrs, &rng).ValueOrDie();

  std::printf("# micro_delta_eval: rows=%lld protected_attrs=%zu\n",
              static_cast<long long>(rows), attrs.size());
  std::printf("measure,full_ms,delta_ms,speedup,max_abs_diff\n");

  struct NamedMeasure {
    std::string name;
    std::unique_ptr<metrics::Measure> measure;
  };
  std::vector<NamedMeasure> measures;
  measures.push_back({"CTBIL", std::make_unique<metrics::CtbIl>(2)});
  measures.push_back({"DBIL", std::make_unique<metrics::DbIl>()});
  measures.push_back({"EBIL", std::make_unique<metrics::EbIl>()});
  measures.push_back({"ID", std::make_unique<metrics::IntervalDisclosure>(10.0)});
  measures.push_back(
      {"DBRL", std::make_unique<metrics::DistanceBasedRecordLinkage>()});
  measures.push_back(
      {"PRL", std::make_unique<metrics::ProbabilisticRecordLinkage>(50)});
  measures.push_back(
      {"RSRL", std::make_unique<metrics::RankSwappingRecordLinkage>(15.0)});

  const int kSteps = quick ? 16 : 40;
  auto steps = DrawMutations(masked, attrs, kSteps, 0xD17A);

  JsonValue measures_json = JsonValue::MakeObject();
  bool all_within_tolerance = true;
  double dbrl_speedup = 0.0;
  std::vector<std::unique_ptr<metrics::BoundMeasure>> bounds;
  for (const auto& [name, measure] : measures) {
    bounds.push_back(std::move(measure->Bind(original, attrs)).ValueOrDie());
    MeasureTiming timing = TimeMeasure(*bounds.back(), &masked, steps);
    std::printf("%s,%.4f,%.4f,%.1fx,%.3g\n", name.c_str(),
                timing.full_eval_seconds * 1e3, timing.delta_eval_seconds * 1e3,
                timing.speedup, timing.max_abs_diff);
    JsonValue one = JsonValue::MakeObject();
    one.Set("full_eval_seconds",
            JsonValue::MakeNumber(timing.full_eval_seconds));
    one.Set("delta_eval_seconds",
            JsonValue::MakeNumber(timing.delta_eval_seconds));
    one.Set("speedup", JsonValue::MakeNumber(timing.speedup));
    one.Set("max_abs_diff", JsonValue::MakeNumber(timing.max_abs_diff));
    measures_json.Set(name, std::move(one));
    all_within_tolerance = all_within_tolerance && timing.max_abs_diff <= 1e-9;
    if (name == "DBRL") dbrl_speedup = timing.speedup;
  }

  // Whole-fitness comparison (all seven measures enabled).
  auto evaluator =
      std::move(metrics::FitnessEvaluator::Create(original, attrs)).ValueOrDie();
  double fitness_full_s = 0.0, fitness_delta_s = 0.0, fitness_diff = 0.0;
  {
    auto state = evaluator->BindState(masked);
    for (const MutationStep& step : steps) {
      int32_t old_code = masked.Code(step.row, step.attr);
      masked.SetCode(step.row, step.attr, step.new_code);
      std::vector<metrics::CellDelta> deltas{
          {step.row, step.attr, old_code, step.new_code}};
      Timer delta_timer;
      state->ApplyDelta(masked, metrics::SegmentDelta::FromCells(deltas));
      double delta_score = state->breakdown().score;
      fitness_delta_s += delta_timer.ElapsedSeconds();
      Timer full_timer;
      double full_score = evaluator->Evaluate(masked).score;
      fitness_full_s += full_timer.ElapsedSeconds();
      fitness_diff = std::max(fitness_diff, std::fabs(delta_score - full_score));
      state->Revert();
      masked.SetCode(step.row, step.attr, old_code);
    }
    fitness_full_s /= kSteps;
    fitness_delta_s /= kSteps;
  }
  double fitness_speedup =
      fitness_delta_s > 0 ? fitness_full_s / fitness_delta_s : 0.0;
  std::printf("FITNESS,%.4f,%.4f,%.1fx,%.3g\n", fitness_full_s * 1e3,
              fitness_delta_s * 1e3, fitness_speedup, fitness_diff);

  // Crossover-heavy scenario: the paper operator's own segment
  // distribution — s and r drawn uniformly over the flat genome (inclusive
  // [s, r], averaging ~1/3 of it) — evaluated per offspring as apply +
  // revert, the engine's reject path. "Segment path" = the evaluator's
  // FitnessState under the measure-owned cost model (small and mid legs
  // update incrementally, outsized ones rebuild exactly the measures whose
  // threshold they cross); "rebuild path" = one state per measure, each
  // forced to recompute per batch (threshold pinned to one cell) and fanned
  // out across the measures with ParallelFor as FitnessState::ApplyDelta
  // does. Both routes share the per-measure concurrency, so the comparison
  // isolates the cost model itself.
  double seg_new_s = 0.0, seg_old_s = 0.0, seg_diff = 0.0;
  int64_t seg_cells = 0;
  const int kSegments = quick ? 4 : 10;
  {
    Rng donor_rng(0xC407);
    Dataset donor =
        protection::Pram(0.5).Protect(original, attrs, &donor_rng).ValueOrDie();
    auto segment_state = evaluator->BindState(masked);
    std::vector<std::unique_ptr<metrics::MeasureState>> rebuild_states;
    std::vector<double metrics::FitnessBreakdown::*> fields;
    for (size_t i = 0; i < measures.size(); ++i) {
      rebuild_states.push_back(bounds[i]->BindState(masked));
      rebuild_states.back()->set_full_rebuild_threshold(1);
      for (const metrics::FitnessMeasure& measure : metrics::FitnessMeasures()) {
        if (measures[i].name == measure.name) fields.push_back(measure.field);
      }
    }
    const auto num_states = static_cast<int64_t>(rebuild_states.size());
    std::vector<double> rebuild_scores(rebuild_states.size());
    core::GenomeLayout layout(attrs, rows);
    int64_t genome = layout.Length();
    Rng seg_rng(0x5E67);
    for (int step = 0; step < kSegments; ++step) {
      auto s = static_cast<int64_t>(seg_rng.UniformInt(0, genome - 1));
      auto r = static_cast<int64_t>(seg_rng.UniformInt(s, genome - 1));
      auto segment = core::CrossoverSegmentSwap(layout, donor, &masked, s, r);
      seg_cells += segment.num_cells();
      Timer new_timer;
      segment_state->ApplyDelta(masked, segment);
      metrics::FitnessBreakdown breakdown = segment_state->breakdown();
      segment_state->Revert();
      seg_new_s += new_timer.ElapsedSeconds();
      Timer old_timer;
      ParallelFor(0, num_states, [&](int64_t i) {
        rebuild_states[static_cast<size_t>(i)]->ApplySegment(masked, segment);
      });
      for (size_t i = 0; i < rebuild_states.size(); ++i) {
        rebuild_scores[i] = rebuild_states[i]->Score();
      }
      for (const auto& state : rebuild_states) state->RevertSegment();
      seg_old_s += old_timer.ElapsedSeconds();
      for (size_t i = 0; i < rebuild_states.size(); ++i) {
        seg_diff = std::max(seg_diff,
                            std::fabs(breakdown.*fields[i] - rebuild_scores[i]));
      }
      const auto& cells = segment.cells();
      for (auto it = cells.rbegin(); it != cells.rend(); ++it) {
        masked.SetCode(it->row, it->attr, it->old_code);
      }
    }
    seg_new_s /= kSegments;
    seg_old_s /= kSegments;
  }
  double seg_speedup = seg_new_s > 0 ? seg_old_s / seg_new_s : 0.0;
  std::printf(
      "crossover_segment,cells_per_batch=%lld,rebuild_ms=%.3f,"
      "segment_ms=%.3f,speedup=%.2fx,max_abs_diff=%.3g\n",
      static_cast<long long>(seg_cells / kSegments), seg_old_s * 1e3,
      seg_new_s * 1e3, seg_speedup, seg_diff);

  // Wide-pattern PRL scenario: 12 protected attributes (2^12 pattern space,
  // beyond the former dense 8-attribute limit). Single-cell delta vs full
  // Compute and vs a forced per-step rebuild.
  double prl_full_s = 0.0, prl_delta_s = 0.0, prl_rebuild_s = 0.0;
  double prl_diff = 0.0;
  int64_t prl_rows = quick ? 150 : 500;
  {
    auto prl_profile = datagen::UniformTestProfile(
        "prl12", prl_rows, std::vector<int>(12, 4));
    Dataset prl_original = datagen::Generate(prl_profile, 977).ValueOrDie();
    auto prl_attrs =
        datagen::ProtectedAttributeIndices(prl_profile, prl_original)
            .ValueOrDie();
    Rng prl_rng(978);
    Dataset prl_masked = protection::Pram(0.7)
                             .Protect(prl_original, prl_attrs, &prl_rng)
                             .ValueOrDie();
    metrics::ProbabilisticRecordLinkage prl(quick ? 10 : 25);
    auto bound = std::move(prl.Bind(prl_original, prl_attrs)).ValueOrDie();
    auto delta_state = bound->BindState(prl_masked);
    auto rebuild_state = bound->BindState(prl_masked);
    rebuild_state->set_full_rebuild_threshold(1);
    const int kPrlSteps = quick ? 6 : 15;
    auto prl_steps = DrawMutations(prl_masked, prl_attrs, kPrlSteps, 0x12A7);
    for (const MutationStep& step : prl_steps) {
      int32_t old_code = prl_masked.Code(step.row, step.attr);
      prl_masked.SetCode(step.row, step.attr, step.new_code);
      std::vector<metrics::CellDelta> deltas{
          {step.row, step.attr, old_code, step.new_code}};
      Timer delta_timer;
      delta_state->ApplySegment(prl_masked,
                                metrics::SegmentDelta::FromCells(deltas));
      double delta_score = delta_state->Score();
      delta_state->RevertSegment();
      prl_delta_s += delta_timer.ElapsedSeconds();
      Timer rebuild_timer;
      rebuild_state->ApplySegment(prl_masked,
                                  metrics::SegmentDelta::FromCells(deltas));
      double rebuild_score = rebuild_state->Score();
      rebuild_state->RevertSegment();
      prl_rebuild_s += rebuild_timer.ElapsedSeconds();
      Timer full_timer;
      double full_score = bound->Compute(prl_masked);
      prl_full_s += full_timer.ElapsedSeconds();
      prl_diff = std::max(prl_diff, std::fabs(delta_score - full_score));
      prl_diff = std::max(prl_diff, std::fabs(rebuild_score - full_score));
      prl_masked.SetCode(step.row, step.attr, old_code);
    }
    prl_full_s /= kPrlSteps;
    prl_delta_s /= kPrlSteps;
    prl_rebuild_s /= kPrlSteps;
  }
  double prl_vs_full = prl_delta_s > 0 ? prl_full_s / prl_delta_s : 0.0;
  double prl_vs_rebuild = prl_delta_s > 0 ? prl_rebuild_s / prl_delta_s : 0.0;
  std::printf(
      "prl_wide,attrs=12,rows=%lld,full_ms=%.3f,rebuild_ms=%.3f,"
      "delta_ms=%.3f,speedup_vs_full=%.1fx,speedup_vs_rebuild=%.1fx,"
      "max_abs_diff=%.3g\n",
      static_cast<long long>(prl_rows), prl_full_s * 1e3, prl_rebuild_s * 1e3,
      prl_delta_s * 1e3, prl_vs_full, prl_vs_rebuild, prl_diff);

  // Engine end to end: the paper's Adult job on the delta path, at `rows`
  // records (an inline profile, so the roster is the Adult mix spelled out).
  api::JobSpec engine_job = bench::BenchSpec(
      "adult", metrics::ScoreAggregation::kMean, engine_generations);
  engine_job.source.has_inline_profile = true;
  engine_job.source.profile = datagen::AdultProfile();
  engine_job.source.profile.num_records = rows;
  engine_job.methods =
      api::RosterFromPopulationSpec(protection::AdultPopulationSpec());
  auto engine_run = api::Session().Run(engine_job).ValueOrDie();
  double engine_seconds = engine_run.stats.mutation_total_seconds +
                          engine_run.stats.crossover_total_seconds;
  double engine_gens_per_sec =
      engine_seconds > 0
          ? static_cast<double>(engine_run.history.size()) / engine_seconds
          : 0.0;
  std::printf("engine,gens_per_sec=%.2f,final_min=%.4f\n",
              engine_gens_per_sec, engine_run.final_scores.min);

  JsonValue json = JsonValue::MakeObject();
  json.Set("bench", JsonValue::MakeString("micro_delta_eval"));
  json.Set("dataset", JsonValue::MakeString(engine_run.dataset));
  json.Set("rows", JsonValue::MakeInt(rows));
  json.Set("protected_attrs",
           JsonValue::MakeInt(static_cast<int64_t>(attrs.size())));
  JsonValue fitness_json = JsonValue::MakeObject();
  fitness_json.Set("full_eval_seconds", JsonValue::MakeNumber(fitness_full_s));
  fitness_json.Set("delta_eval_seconds",
                   JsonValue::MakeNumber(fitness_delta_s));
  fitness_json.Set("speedup", JsonValue::MakeNumber(fitness_speedup));
  fitness_json.Set("max_abs_diff", JsonValue::MakeNumber(fitness_diff));
  JsonValue segment_json = JsonValue::MakeObject();
  segment_json.Set("rebuild_eval_seconds", JsonValue::MakeNumber(seg_old_s));
  segment_json.Set("segment_eval_seconds", JsonValue::MakeNumber(seg_new_s));
  segment_json.Set("speedup", JsonValue::MakeNumber(seg_speedup));
  segment_json.Set("max_abs_diff", JsonValue::MakeNumber(seg_diff));
  JsonValue prl_wide_json = JsonValue::MakeObject();
  prl_wide_json.Set("attrs", JsonValue::MakeInt(12));
  prl_wide_json.Set("rows", JsonValue::MakeInt(prl_rows));
  prl_wide_json.Set("full_eval_seconds", JsonValue::MakeNumber(prl_full_s));
  prl_wide_json.Set("rebuild_eval_seconds",
                    JsonValue::MakeNumber(prl_rebuild_s));
  prl_wide_json.Set("delta_eval_seconds", JsonValue::MakeNumber(prl_delta_s));
  prl_wide_json.Set("speedup_vs_full", JsonValue::MakeNumber(prl_vs_full));
  prl_wide_json.Set("speedup_vs_rebuild",
                    JsonValue::MakeNumber(prl_vs_rebuild));
  prl_wide_json.Set("max_abs_diff", JsonValue::MakeNumber(prl_diff));
  json.Set("measures", std::move(measures_json));
  json.Set("fitness", std::move(fitness_json));
  json.Set("crossover_segment", std::move(segment_json));
  json.Set("prl_wide", std::move(prl_wide_json));
  json.Set("engine_incremental", bench::EngineThroughputJson(engine_run));

  // Process-wide telemetry counters (fresh process, so totals == this run):
  // delta traffic plus the per-measure rebuild fallbacks that the cost model
  // is supposed to keep rare.
  {
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    JsonValue counters_json = JsonValue::MakeObject();
    counters_json.Set("delta_applies",
                      JsonValue::MakeInt(registry.CounterValue(
                          "evocat_delta_applies_total")));
    counters_json.Set("delta_reverts",
                      JsonValue::MakeInt(registry.CounterValue(
                          "evocat_delta_reverts_total")));
    int64_t fallbacks = 0;
    JsonValue fallback_json = JsonValue::MakeObject();
    for (const metrics::FitnessMeasure& measure : metrics::FitnessMeasures()) {
      int64_t value = registry.CounterValue("evocat_rebuild_fallbacks_total",
                                            {{"measure", measure.key}});
      fallback_json.Set(measure.key, JsonValue::MakeInt(value));
      fallbacks += value;
    }
    // PRL EM fits (every fit runs the cold schedule).
    counters_json.Set("rebuild_fallbacks_total", JsonValue::MakeInt(fallbacks));
    counters_json.Set("rebuild_fallbacks", std::move(fallback_json));
    counters_json.Set("em_cold_starts",
                      JsonValue::MakeInt(registry.CounterValue(
                          "evocat_delta_plane_em_cold_starts_total")));
    json.Set("counters", std::move(counters_json));
  }

  // Gated 100k- and 1M-row scenarios: delta path against forced rebuilds,
  // bit-exact scores required.
  ScaleResult scale_100k, scale_1m;
  if (scale) {
    scale_100k = RunScaleScenario(100000, quick ? 6 : 12);
    scale_1m = RunScaleScenario(1000000, quick ? 4 : 8);
    json.Set("scale_100k", std::move(scale_100k.json));
    json.Set("scale_1m", std::move(scale_1m.json));
  }

  const char* json_path = std::getenv("EVOCAT_BENCH_JSON");
  std::string path = json_path != nullptr ? json_path : "BENCH_engine.json";
  Status status = bench::WriteJsonFile(path, json);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("# json written to %s\n", path.c_str());

  if (!all_within_tolerance || fitness_diff > 1e-9 || seg_diff > 1e-9 ||
      prl_diff > 1e-9) {
    std::fprintf(stderr, "FAIL: delta/full disagreement above 1e-9\n");
    return 1;
  }
  if (!quick && rows >= 1000) {
    if (dbrl_speedup < 10.0) {
      std::fprintf(stderr, "FAIL: DBRL delta speedup %.1fx below 10x target\n",
                   dbrl_speedup);
      return 1;
    }
    if (seg_speedup < 1.0) {
      std::fprintf(stderr,
                   "FAIL: crossover segment path %.2fx slower than the "
                   "full-rebuild path\n",
                   seg_speedup);
      return 1;
    }
    if (prl_vs_rebuild < 1.0) {
      std::fprintf(stderr,
                   "FAIL: 12-attribute PRL delta path %.2fx slower than the "
                   "full-rebuild path\n",
                   prl_vs_rebuild);
      return 1;
    }
  }
  if (scale &&
      (scale_100k.max_abs_diff != 0.0 || scale_1m.max_abs_diff != 0.0)) {
    std::fprintf(stderr,
                 "FAIL: delta path diverged from a forced rebuild (100k diff "
                 "%.3g, 1M diff %.3g) — must be exactly 0\n",
                 scale_100k.max_abs_diff, scale_1m.max_abs_diff);
    return 1;
  }
  std::printf("# OK\n");
  return 0;
}
