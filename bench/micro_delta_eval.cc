// Micro-benchmark for the incremental (operator-delta) fitness evaluation
// subsystem, plus an engine-level before/after throughput comparison.
//
// Measures, on a >=1,000-record synthetic Adult file:
//   1. per-measure single-cell (mutation) re-evaluation: full Compute vs
//      MeasureState::ApplyDelta+Score, asserting the two scores agree to
//      1e-9 and reporting the speedup (target: >= 10x with DBRL enabled);
//   2. whole-fitness delta evaluation vs FitnessEvaluator::Evaluate;
//   3. crossover-heavy segment batches (the operator's own uniform 2-point
//      draw, averaging ~1/3 of the genome): the measure-owned cost model
//      (segment path) vs forcing every state to rebuild per batch, per
//      offspring evaluation + revert;
//   4. a 12-protected-attribute PRL file: the compressed pattern-histogram
//      delta path vs full Compute and vs a forced per-step rebuild (the
//      former >8-attribute fallback);
//   5. the GA engine run end to end with incremental_eval off vs on.
//
// Results are printed as CSV-ish lines and written machine-readably to
// BENCH_engine.json (override the path with EVOCAT_BENCH_JSON) so the perf
// trajectory is tracked across PRs.
//
// Usage: micro_delta_eval [--quick] [--scale] [rows] [engine_generations]
//   --quick shrinks every scenario for CI smoke jobs (and skips the hard
//   speedup gates, which assume benchmark-sized inputs).
//   --scale adds the 100k- and 1M-row scenarios (each measure's
//   single-cell delta vs a forced rebuild of the same state, bit-exact
//   scores required).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/packed_column.h"
#include "data/stats.h"
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
#include "protection/pram.h"

using namespace evocat;

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
      state->ApplyDelta(*masked, deltas);
      double delta_score = state->Score();
      elapsed += timer.ElapsedSeconds();
      double full_score = bound.Compute(*masked);
      timing.max_abs_diff =
          std::max(timing.max_abs_diff, std::fabs(delta_score - full_score));
      state->Revert();
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
  bench::JsonObject json;
  double max_abs_diff = 0.0;
};

/// The scale scenario: the same single-cell mutation walk timed on each
/// measure's incremental path and on a forced rebuild of the same state
/// (threshold pinned to one cell, so every apply recomputes from scratch).
/// Scores must agree *exactly* (diff == 0): the rebuild is the state's own
/// from-scratch build, so any difference is a delta-path bug.
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

  /// Times apply + score + revert over the walk with the state's rebuild
  /// threshold pinned to `threshold` cells (0 = the measure's cost model)
  /// and collects the per-step scores.
  auto run_path = [&](const metrics::BoundMeasure& bound, int64_t threshold,
                      std::vector<double>* scores) {
    auto state = bound.BindState(masked);
    state->set_full_rebuild_threshold(threshold);
    double elapsed = 0.0;
    for (const MutationStep& step : steps) {
      int32_t old_code = masked.Code(step.row, step.attr);
      masked.SetCode(step.row, step.attr, step.new_code);
      std::vector<metrics::CellDelta> deltas{
          {step.row, step.attr, old_code, step.new_code}};
      Timer timer;
      state->ApplyDelta(masked, deltas);
      scores->push_back(state->Score());
      state->Revert();
      elapsed += timer.ElapsedSeconds();
      masked.SetCode(step.row, step.attr, old_code);
    }
    return elapsed / static_cast<double>(steps.size());
  };

  ScaleResult result;
  std::printf("# scale scenario: rows=%lld\n", static_cast<long long>(rows));
  std::printf("scale_measure,rebuild_ms,delta_ms,speedup,max_abs_diff\n");
  bench::JsonObject measures_json;
  double rebuild_total = 0.0, delta_total = 0.0;
  for (const auto& [name, measure] : ScaleMeasures()) {
    auto bound = std::move(measure->Bind(original, attrs)).ValueOrDie();
    std::vector<double> rebuild_scores, delta_scores;
    double rebuild_s = run_path(*bound, /*threshold=*/1, &rebuild_scores);
    double delta_s = run_path(*bound, /*threshold=*/0, &delta_scores);
    double diff = 0.0;
    for (size_t i = 0; i < rebuild_scores.size(); ++i) {
      diff = std::max(diff, std::fabs(rebuild_scores[i] - delta_scores[i]));
    }
    result.max_abs_diff = std::max(result.max_abs_diff, diff);
    rebuild_total += rebuild_s;
    delta_total += delta_s;
    double speedup = delta_s > 0 ? rebuild_s / delta_s : 0.0;
    std::printf("%s,%.4f,%.4f,%.1fx,%.3g\n", name.c_str(), rebuild_s * 1e3,
                delta_s * 1e3, speedup, diff);
    bench::JsonObject one;
    one.Add("rebuild_eval_seconds", rebuild_s)
        .Add("delta_eval_seconds", delta_s)
        .Add("speedup", speedup)
        .Add("max_abs_diff", diff);
    measures_json.Add(name, one);
  }
  double speedup = delta_total > 0 ? rebuild_total / delta_total : 0.0;
  std::printf("scale_aggregate,rows=%lld,rebuild_ms=%.3f,delta_ms=%.3f,"
              "speedup=%.2fx,max_abs_diff=%.3g\n",
              static_cast<long long>(rows), rebuild_total * 1e3,
              delta_total * 1e3, speedup, result.max_abs_diff);
  result.json.Add("rows", rows)
      .Add("measures", measures_json)
      .Add("rebuild_eval_seconds", rebuild_total)
      .Add("delta_eval_seconds", delta_total)
      .Add("speedup", speedup)
      .Add("max_abs_diff", result.max_abs_diff);
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

  bench::JsonObject measures_json;
  bool all_within_tolerance = true;
  double dbrl_speedup = 0.0;
  for (const auto& [name, measure] : measures) {
    auto bound = std::move(measure->Bind(original, attrs)).ValueOrDie();
    MeasureTiming timing = TimeMeasure(*bound, &masked, steps);
    std::printf("%s,%.4f,%.4f,%.1fx,%.3g\n", name.c_str(),
                timing.full_eval_seconds * 1e3, timing.delta_eval_seconds * 1e3,
                timing.speedup, timing.max_abs_diff);
    bench::JsonObject one;
    one.Add("full_eval_seconds", timing.full_eval_seconds)
        .Add("delta_eval_seconds", timing.delta_eval_seconds)
        .Add("speedup", timing.speedup)
        .Add("max_abs_diff", timing.max_abs_diff);
    measures_json.Add(name, one);
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
      state->ApplyDelta(masked, deltas);
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
  // revert, the engine's reject path. "Segment path" = the measure-owned
  // cost model (small and mid legs update incrementally, outsized ones
  // rebuild exactly the measures whose threshold they cross); "rebuild
  // path" = every state forced to recompute per batch (the pre-cost-model
  // behaviour for rebuild-sized legs). Both routes share the per-measure
  // concurrency, so the comparison isolates the cost model itself.
  double seg_new_s = 0.0, seg_old_s = 0.0, seg_diff = 0.0;
  int64_t seg_cells = 0;
  const int kSegments = quick ? 4 : 10;
  {
    Rng donor_rng(0xC407);
    Dataset donor =
        protection::Pram(0.5).Protect(original, attrs, &donor_rng).ValueOrDie();
    metrics::FitnessEvaluator::Options cliff_options;
    cliff_options.delta_rebuild_fraction = 0.01;
    auto cliff_evaluator = std::move(metrics::FitnessEvaluator::Create(
                                         original, attrs, cliff_options))
                               .ValueOrDie();
    auto segment_state = evaluator->BindState(masked);
    auto rebuild_state = cliff_evaluator->BindState(masked);
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
      double new_score = segment_state->breakdown().score;
      segment_state->Revert();
      seg_new_s += new_timer.ElapsedSeconds();
      Timer old_timer;
      rebuild_state->ApplyDelta(masked, segment);
      double old_score = rebuild_state->breakdown().score;
      rebuild_state->Revert();
      seg_old_s += old_timer.ElapsedSeconds();
      seg_diff = std::max(seg_diff, std::fabs(new_score - old_score));
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
      delta_state->ApplyDelta(prl_masked, deltas);
      double delta_score = delta_state->Score();
      delta_state->Revert();
      prl_delta_s += delta_timer.ElapsedSeconds();
      Timer rebuild_timer;
      rebuild_state->ApplyDelta(prl_masked, deltas);
      double rebuild_score = rebuild_state->Score();
      rebuild_state->Revert();
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

  // Word-walk contingency kernel: AccumulateRangePacked (block word decode +
  // dense mixed-radix accumulation) against the per-value scalar decode +
  // hash-map insert it replaced, on a CTBIL-shaped attribute pair. Counts
  // are integers, so the two cell maps must be identical.
  double kernel_scalar_s = 1e100, kernel_walk_s = 1e100;
  bool kernel_cells_equal = true;
  int64_t kernel_rows = quick ? 200000 : 2000000;
  {
    Rng kernel_rng(0xB17);
    std::vector<int32_t> cards{16, 14};
    std::vector<PackedColumn> packed;
    for (int32_t card : cards) {
      std::vector<int32_t> codes;
      codes.reserve(static_cast<size_t>(kernel_rows));
      for (int64_t r = 0; r < kernel_rows; ++r) {
        codes.push_back(static_cast<int32_t>(kernel_rng.UniformInt(0, card - 1)));
      }
      packed.push_back(PackedColumn::Pack(codes, card));
    }
    std::vector<const PackedColumn*> cols{&packed[0], &packed[1]};
    std::unordered_map<uint64_t, int64_t> walk_cells, scalar_cells;
    const int kKernelReps = 3;
    for (int rep = 0; rep < kKernelReps; ++rep) {
      std::unordered_map<uint64_t, int64_t> cells;
      Timer timer;
      ContingencyTable::AccumulateRangePacked(cols, 0, kernel_rows, &cells);
      kernel_walk_s = std::min(kernel_walk_s, timer.ElapsedSeconds());
      walk_cells = std::move(cells);
    }
    for (int rep = 0; rep < kKernelReps; ++rep) {
      std::unordered_map<uint64_t, int64_t> cells;
      Timer timer;
      for (int64_t r = 0; r < kernel_rows; ++r) {
        uint64_t key =
            static_cast<uint64_t>(static_cast<uint32_t>(packed[0].Get(r))) &
            0xFFFFu;
        key |= (static_cast<uint64_t>(static_cast<uint32_t>(packed[1].Get(r))) &
                0xFFFFu)
               << 16;
        ++cells[key];
      }
      kernel_scalar_s = std::min(kernel_scalar_s, timer.ElapsedSeconds());
      scalar_cells = std::move(cells);
    }
    kernel_cells_equal = walk_cells == scalar_cells;
  }
  double kernel_speedup =
      kernel_walk_s > 0 ? kernel_scalar_s / kernel_walk_s : 0.0;
  std::printf(
      "ctbil_kernel,rows=%lld,scalar_ms=%.3f,word_walk_ms=%.3f,"
      "speedup=%.2fx,simd=%d,cells_equal=%d\n",
      static_cast<long long>(kernel_rows), kernel_scalar_s * 1e3,
      kernel_walk_s * 1e3, kernel_speedup,
      PackedColumn::SimdEnabled() ? 1 : 0, kernel_cells_equal ? 1 : 0);

  // Engine before/after: identical seeds and generation budget, incremental
  // evaluation off vs on.
  auto dataset_case = experiments::AdultCase();
  dataset_case.profile.num_records = rows;
  auto options = bench::BenchOptions(metrics::ScoreAggregation::kMean,
                                     engine_generations);
  options.incremental_eval = false;
  auto full_run =
      std::move(experiments::RunExperiment(dataset_case, options)).ValueOrDie();
  options.incremental_eval = true;
  auto delta_run =
      std::move(experiments::RunExperiment(dataset_case, options)).ValueOrDie();

  auto gens_per_sec = [](const experiments::ExperimentResult& result) {
    double seconds = result.stats.mutation_total_seconds +
                     result.stats.crossover_total_seconds;
    return seconds > 0 ? static_cast<double>(result.history.size()) / seconds
                       : 0.0;
  };
  double engine_speedup = gens_per_sec(full_run) > 0
                              ? gens_per_sec(delta_run) / gens_per_sec(full_run)
                              : 0.0;
  std::printf("engine,full_gens_per_sec=%.2f,delta_gens_per_sec=%.2f,"
              "speedup=%.1fx,final_min_full=%.4f,final_min_delta=%.4f\n",
              gens_per_sec(full_run), gens_per_sec(delta_run), engine_speedup,
              full_run.final_scores.min, delta_run.final_scores.min);

  bench::JsonObject json;
  json.Add("bench", std::string("micro_delta_eval"))
      .Add("dataset", dataset_case.profile.name)
      .Add("rows", rows)
      .Add("protected_attrs", static_cast<int64_t>(attrs.size()));
  bench::JsonObject fitness_json;
  fitness_json.Add("full_eval_seconds", fitness_full_s)
      .Add("delta_eval_seconds", fitness_delta_s)
      .Add("speedup", fitness_speedup)
      .Add("max_abs_diff", fitness_diff);
  bench::JsonObject segment_json;
  segment_json.Add("rebuild_eval_seconds", seg_old_s)
      .Add("segment_eval_seconds", seg_new_s)
      .Add("speedup", seg_speedup)
      .Add("max_abs_diff", seg_diff);
  bench::JsonObject prl_wide_json;
  prl_wide_json.Add("attrs", static_cast<int64_t>(12))
      .Add("rows", prl_rows)
      .Add("full_eval_seconds", prl_full_s)
      .Add("rebuild_eval_seconds", prl_rebuild_s)
      .Add("delta_eval_seconds", prl_delta_s)
      .Add("speedup_vs_full", prl_vs_full)
      .Add("speedup_vs_rebuild", prl_vs_rebuild)
      .Add("max_abs_diff", prl_diff);
  bench::JsonObject kernel_json;
  kernel_json.Add("rows", kernel_rows)
      .Add("scalar_seconds", kernel_scalar_s)
      .Add("word_walk_seconds", kernel_walk_s)
      .Add("speedup", kernel_speedup)
      .Add("simd", static_cast<int64_t>(PackedColumn::SimdEnabled() ? 1 : 0))
      .Add("cells_equal", static_cast<int64_t>(kernel_cells_equal ? 1 : 0));
  json.Add("measures", measures_json)
      .Add("fitness", fitness_json)
      .Add("crossover_segment", segment_json)
      .Add("prl_wide", prl_wide_json)
      .Add("ctbil_kernel", kernel_json)
      .Add("engine_full", bench::EngineThroughputJson(full_run))
      .Add("engine_incremental", bench::EngineThroughputJson(delta_run))
      .Add("engine_speedup", engine_speedup);

  // Process-wide telemetry counters (fresh process, so totals == this run):
  // delta traffic plus the per-measure rebuild fallbacks that the cost model
  // is supposed to keep rare.
  {
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    bench::JsonObject counters_json;
    counters_json
        .Add("delta_applies",
             registry.CounterValue("evocat_delta_applies_total"))
        .Add("delta_reverts",
             registry.CounterValue("evocat_delta_reverts_total"));
    int64_t fallbacks = 0;
    bench::JsonObject fallback_json;
    for (const char* measure :
         {"ctbil", "dbil", "ebil", "id", "dbrl", "prl", "rsrl"}) {
      int64_t value = registry.CounterValue("evocat_rebuild_fallbacks_total",
                                            {{"measure", measure}});
      fallback_json.Add(measure, value);
      fallbacks += value;
    }
    counters_json.Add("rebuild_fallbacks_total", fallbacks)
        .Add("rebuild_fallbacks", fallback_json);
    // Delta-plane kernel telemetry: word traffic of the packed bulk kernels,
    // which decode path served them, and the PRL EM warm-start hit rate.
    counters_json
        .Add("delta_plane_words_scanned",
             registry.CounterValue("evocat_delta_plane_words_scanned_total"))
        .Add("delta_plane_kernel_calls_simd",
             registry.CounterValue("evocat_delta_plane_kernel_calls_total",
                                   {{"path", "simd"}}))
        .Add("delta_plane_kernel_calls_scalar",
             registry.CounterValue("evocat_delta_plane_kernel_calls_total",
                                   {{"path", "scalar"}}))
        .Add("em_warm_hits",
             registry.CounterValue("evocat_delta_plane_em_warm_hits_total"))
        .Add("em_cold_starts",
             registry.CounterValue("evocat_delta_plane_em_cold_starts_total"));
    json.Add("counters", counters_json);
  }

  // Gated 100k- and 1M-row scenarios: delta path against forced rebuilds,
  // bit-exact scores required.
  ScaleResult scale_100k, scale_1m;
  if (scale) {
    scale_100k = RunScaleScenario(100000, quick ? 6 : 12);
    scale_1m = RunScaleScenario(1000000, quick ? 4 : 8);
    json.Add("scale_100k", scale_100k.json).Add("scale_1m", scale_1m.json);
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
  if (!kernel_cells_equal) {
    std::fprintf(stderr,
                 "FAIL: word-walk contingency kernel disagrees with the "
                 "scalar decode\n");
    return 1;
  }
  if (!quick && kernel_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: word-walk contingency kernel %.2fx below the 3x "
                 "target vs scalar decode\n",
                 kernel_speedup);
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
