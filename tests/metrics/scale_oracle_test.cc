// Scale-parameterized oracle harness: every measure runs the same seeded
// (operator-sequence, seed) walk — applies, reverts and a rebuild-sized
// segment — bound and run on schedulers with 1, 3 and 8 workers, so its
// builds shard 1, 3 and 8 ways. The traces must agree bit-for-bit on every
// intermediate score and finish with the RNG at the same draw count (the
// shard count may not consume randomness). At 1k and 10k rows every score
// is also checked against a from-scratch Compute() within 1e-9. The 100k
// leg (behind the *Scale100k* filter, ctest label `scale`) compares 1
// worker against 8 only, with no O(n^2) Compute.

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/rng.h"
#include "metrics/ctbil.h"
#include "metrics/dbil.h"
#include "metrics/dbrl.h"
#include "metrics/ebil.h"
#include "metrics/fitness.h"
#include "metrics/interval_disclosure.h"
#include "metrics/prl.h"
#include "metrics/rsrl.h"

namespace evocat {
namespace metrics {
namespace {

using evocat::testing::MakeScaleWorld;
using evocat::testing::RunOnScheduler;
using evocat::testing::ScaleWorld;

std::vector<std::unique_ptr<Measure>> AllMeasures() {
  std::vector<std::unique_ptr<Measure>> measures;
  measures.push_back(std::make_unique<CtbIl>(2));
  measures.push_back(std::make_unique<DbIl>());
  measures.push_back(std::make_unique<EbIl>());
  measures.push_back(std::make_unique<IntervalDisclosure>(10.0));
  measures.push_back(std::make_unique<DistanceBasedRecordLinkage>());
  measures.push_back(std::make_unique<ProbabilisticRecordLinkage>(10));
  measures.push_back(std::make_unique<RankSwappingRecordLinkage>(15.0));
  return measures;
}

/// Draws a batch of 1..max_cells distinct-cell changes, applies them to
/// `masked` and returns the deltas. Identical RNG state in = identical
/// batch out, which is what lets every scheduler replay the same walk.
std::vector<CellDelta> DrawBatch(Dataset* masked,
                                 const std::vector<int>& attrs, Rng* rng,
                                 int max_cells) {
  int cells = static_cast<int>(rng->UniformInt(1, max_cells));
  std::map<std::pair<int64_t, int>, CellDelta> unique;
  for (int c = 0; c < cells; ++c) {
    int64_t row = static_cast<int64_t>(
        rng->UniformIndex(static_cast<size_t>(masked->num_rows())));
    int attr = attrs[rng->UniformIndex(attrs.size())];
    int32_t card = masked->schema().attribute(attr).cardinality();
    auto new_code = static_cast<int32_t>(rng->UniformInt(0, card - 1));
    auto key = std::make_pair(row, attr);
    auto it = unique.find(key);
    if (it == unique.end()) {
      unique.emplace(key, CellDelta{row, attr, masked->Code(row, attr),
                                    new_code});
    } else {
      it->second.new_code = new_code;
    }
  }
  std::vector<CellDelta> deltas;
  for (auto& [key, delta] : unique) {
    masked->SetCode(delta.row, delta.attr, delta.new_code);
    deltas.push_back(delta);
  }
  return deltas;
}

/// One full walk of a measure, bound and run on a `workers`-thread
/// scheduler: every score the state reports (after each apply, each revert,
/// the forced rebuild and its revert) plus the RNG's next draw at the end.
/// With `cross_check` every score is also held against Compute() of the
/// file it describes.
struct Trace {
  std::vector<double> scores;
  uint64_t final_draw = 0;
};

Trace RunWalk(const Measure& measure, const ScaleWorld& world, uint64_t seed,
              int steps, int workers, bool cross_check) {
  Trace trace;
  RunOnScheduler(workers, [&] {
    auto bound =
        std::move(measure.Bind(world.original, world.attrs)).ValueOrDie();
    Dataset masked = world.masked.Clone();
    auto state = bound->BindState(masked);
    auto record = [&](const Dataset& file, const char* what, int step) {
      trace.scores.push_back(state->Score());
      if (cross_check) {
        EXPECT_NEAR(state->Score(), bound->Compute(file), 1e-9)
            << measure.Name() << " " << what << " at step " << step;
      }
    };
    record(masked, "bind", 0);

    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
      Dataset before = masked.Clone();
      auto deltas = DrawBatch(&masked, world.attrs, &rng, 4);
      state->ApplyDelta(masked, deltas);
      record(masked, "apply", step);
      if (step % 3 == 2) {
        state->Revert();
        record(before, "revert", step);
        state->ApplyDelta(masked, deltas);
        trace.scores.push_back(state->Score());
      }
    }

    // Rebuild-sized leg: force the fallback threshold down so the next batch
    // takes the full-rebuild path, then revert it.
    state->set_full_rebuild_threshold(1);
    Dataset before = masked.Clone();
    auto deltas = DrawBatch(&masked, world.attrs, &rng, 4);
    state->ApplyDelta(masked, deltas);
    record(masked, "rebuild", steps);
    state->Revert();
    masked = std::move(before);
    record(masked, "rebuild revert", steps);

    trace.final_draw = rng.NextU64();
  });
  return trace;
}

/// Walks every measure on each scheduler size in `workers` (the first is
/// the reference trace) and requires bit-identical traces and RNG draw
/// counts; with `cross_check` the last walk also checks every score against
/// Compute().
void RunScaleOracle(int64_t rows, int steps, const std::vector<int>& workers,
                    bool cross_check) {
  ScaleWorld world = MakeScaleWorld(rows, 7000 + static_cast<uint64_t>(rows));
  for (const auto& measure : AllMeasures()) {
    uint64_t seed = 900 + static_cast<uint64_t>(rows);
    Trace reference = RunWalk(*measure, world, seed, steps, workers.front(),
                              /*cross_check=*/false);
    for (size_t w = 1; w < workers.size(); ++w) {
      Trace trace = RunWalk(*measure, world, seed, steps, workers[w],
                            cross_check && w + 1 == workers.size());
      ASSERT_EQ(reference.scores.size(), trace.scores.size())
          << measure->Name();
      for (size_t i = 0; i < reference.scores.size(); ++i) {
        ASSERT_EQ(reference.scores[i], trace.scores[i])
            << measure->Name() << " at " << rows << " rows on " << workers[w]
            << " workers diverged at score " << i << " (abs diff "
            << std::abs(reference.scores[i] - trace.scores[i]) << ")";
      }
      EXPECT_EQ(reference.final_draw, trace.final_draw)
          << measure->Name() << " on " << workers[w]
          << " workers consumed a different number of RNG draws";
    }
  }
}

/// Fitness-level walk on a `workers`-thread scheduler: the aggregated score
/// after every apply/revert, with optional per-step cross-checks against a
/// from-scratch Evaluate. `probed` (optional) receives the evaluator's
/// probe report.
std::vector<double> RunFitnessWalk(
    const ScaleWorld& world, uint64_t seed, int steps, int workers,
    const FitnessEvaluator::Options& options, bool cross_check,
    std::vector<std::pair<std::string, double>>* probed) {
  std::vector<double> trace;
  RunOnScheduler(workers, [&] {
    auto evaluator = std::move(FitnessEvaluator::Create(
                                   world.original, world.attrs, options))
                         .ValueOrDie();
    Dataset masked = world.masked.Clone();
    auto state = evaluator->BindState(masked);
    trace.push_back(state->breakdown().score);
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
      auto deltas = DrawBatch(&masked, world.attrs, &rng, 4);
      state->ApplyDelta(masked, deltas);
      trace.push_back(state->breakdown().score);
      if (cross_check) {
        EXPECT_NEAR(state->breakdown().score,
                    evaluator->Evaluate(masked).score, 1e-9)
            << "probe walk step " << step;
      }
      if (step % 3 == 2) {
        state->Revert();
        trace.push_back(state->breakdown().score);
        state->ApplyDelta(masked, deltas);
        trace.push_back(state->breakdown().score);
      }
    }
    if (probed != nullptr) *probed = evaluator->probed_rebuild_fractions();
  });
  return trace;
}

// Probe leg: the bind-time rebuild-fraction probe only moves *when* states
// rebuild, never what they compute, so a probe-on walk must still match
// from-scratch Evaluate at every step and report an in-range fraction for
// each of the seven measures.
TEST(ScaleOracleTest, ProbeOnFitnessWalkStaysExact) {
  ScaleWorld world = MakeScaleWorld(1000, 7001);
  FitnessEvaluator::Options options;
  options.prl_em_iterations = 10;
  options.probe_rebuild_fractions = true;
  std::vector<std::pair<std::string, double>> probed;
  RunFitnessWalk(world, 901, /*steps=*/9, /*workers=*/8, options,
                 /*cross_check=*/true, &probed);
  ASSERT_EQ(probed.size(), 7u);
  for (const auto& [name, fraction] : probed) {
    EXPECT_GE(fraction, 0.01) << name;
    EXPECT_LE(fraction, 1.0) << name;
  }
}

// Pinned fractions bypass the probe entirely, restoring cross-run bit
// reproducibility: the probe-on trace equals the probe-off trace exactly and
// the probe reports nothing.
TEST(ScaleOracleTest, ProbeWithPinnedFractionsReplaysBitIdentically) {
  ScaleWorld world = MakeScaleWorld(1000, 7001);
  FitnessEvaluator::Options pinned;
  pinned.prl_em_iterations = 10;
  pinned.delta_rebuild_fraction = 0.4;  // pins every measure
  FitnessEvaluator::Options pinned_probe = pinned;
  pinned_probe.probe_rebuild_fractions = true;
  std::vector<std::pair<std::string, double>> probed;
  std::vector<double> base = RunFitnessWalk(world, 902, /*steps=*/9,
                                            /*workers=*/8, pinned,
                                            /*cross_check=*/false, nullptr);
  std::vector<double> with_probe =
      RunFitnessWalk(world, 902, /*steps=*/9, /*workers=*/8, pinned_probe,
                     /*cross_check=*/false, &probed);
  ASSERT_EQ(base.size(), with_probe.size());
  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(base[i], with_probe[i]) << "diverged at score " << i;
  }
  EXPECT_TRUE(probed.empty());
}

TEST(ScaleOracleTest, AllMeasuresBitIdentical1k) {
  RunScaleOracle(1000, /*steps=*/12, {1, 3, 8}, /*cross_check=*/true);
}

TEST(ScaleOracleTest, AllMeasuresBitIdentical10k) {
  RunScaleOracle(10000, /*steps=*/9, {1, 3, 8}, /*cross_check=*/true);
}

// Registered as its own ctest entry (metrics/scale_oracle_100k, label
// `scale`); the tier-1 entry filters it out.
TEST(ScaleOracleTest, AllMeasuresBitIdenticalScale100k) {
  RunScaleOracle(100000, /*steps=*/6, {1, 8}, /*cross_check=*/false);
}

}  // namespace
}  // namespace metrics
}  // namespace evocat
