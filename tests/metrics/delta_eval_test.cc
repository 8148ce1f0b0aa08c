// Randomized delta-vs-full equivalence: long sequences of mutations and
// crossover-style segment swaps are applied to a masked file while each
// measure's incremental state tracks them; after every batch the state's
// score must match a from-scratch Compute() within 1e-9, and Revert() must
// restore the previous score exactly. Also exercises the automatic
// full-rebuild fallback for oversized batches and the COW dataset plumbing
// the engine relies on.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/rng.h"
#include "core/operators.h"
#include "datagen/generator.h"
#include "metrics/ctbil.h"
#include "metrics/dbil.h"
#include "metrics/dbrl.h"
#include "metrics/ebil.h"
#include "metrics/fitness.h"
#include "metrics/interval_disclosure.h"
#include "metrics/plane.h"
#include "metrics/prl.h"
#include "metrics/rsrl.h"
#include "protection/pram.h"

namespace evocat {
namespace metrics {
namespace {

using evocat::testing::AllAttrs;

constexpr double kTol = 1e-9;

struct World {
  Dataset original;
  Dataset masked;
  std::vector<int> attrs;
};

World MakeWorldWithCards(uint64_t seed, int64_t rows,
                         const std::vector<int>& cards) {
  auto profile = datagen::UniformTestProfile("d", rows, cards);
  if (cards.size() > 1) profile.attributes[1].kind = AttrKind::kOrdinal;
  World world;
  world.original = datagen::Generate(profile, seed).ValueOrDie();
  world.attrs = AllAttrs(world.original);
  Rng rng(seed + 1);
  world.masked = protection::Pram(0.6)
                     .Protect(world.original, world.attrs, &rng)
                     .ValueOrDie();
  return world;
}

World MakeWorld(uint64_t seed, int64_t rows = 120) {
  return MakeWorldWithCards(seed, rows, {7, 5, 9});
}

/// Applies a random batch of 1..max_cells distinct-cell changes to `masked`
/// and returns the deltas (old -> new per cell).
std::vector<CellDelta> RandomBatch(Dataset* masked,
                                   const std::vector<int>& attrs, Rng* rng,
                                   int max_cells) {
  int cells = static_cast<int>(rng->UniformInt(1, max_cells));
  std::map<std::pair<int64_t, int>, CellDelta> unique;
  for (int c = 0; c < cells; ++c) {
    int64_t row = static_cast<int64_t>(rng->UniformIndex(
        static_cast<size_t>(masked->num_rows())));
    int attr = attrs[rng->UniformIndex(attrs.size())];
    int32_t card = masked->schema().attribute(attr).cardinality();
    auto new_code = static_cast<int32_t>(rng->UniformInt(0, card - 1));
    auto key = std::make_pair(row, attr);
    auto it = unique.find(key);
    if (it == unique.end()) {
      CellDelta delta{row, attr, masked->Code(row, attr), new_code};
      unique.emplace(key, delta);
    } else {
      it->second.new_code = new_code;  // collapse repeat writes to one delta
    }
  }
  std::vector<CellDelta> deltas;
  for (auto& [key, delta] : unique) {
    masked->SetCode(delta.row, delta.attr, delta.new_code);
    deltas.push_back(delta);
  }
  return deltas;
}

void RunMeasureSequence(const Measure& measure, uint64_t seed, int steps,
                        int max_cells, bool force_rebuilds = false,
                        World world = World{}) {
  if (world.attrs.empty()) world = MakeWorld(seed);
  auto bound =
      std::move(measure.Bind(world.original, world.attrs)).ValueOrDie();
  auto state = bound->BindState(world.masked);
  if (force_rebuilds) state->set_full_rebuild_threshold(2);

  EXPECT_NEAR(state->Score(), bound->Compute(world.masked), kTol)
      << measure.Name() << " initial";

  Rng rng(seed + 17);
  for (int step = 0; step < steps; ++step) {
    double score_before = state->Score();
    Dataset before = world.masked.Clone();
    auto deltas = RandomBatch(&world.masked, world.attrs, &rng, max_cells);
    state->ApplyDelta(world.masked, deltas);
    double full = bound->Compute(world.masked);
    ASSERT_NEAR(state->Score(), full, kTol)
        << measure.Name() << " diverged at step " << step << " (batch of "
        << deltas.size() << " cells)";

    // Every fourth batch: revert both the state and the file, confirm the
    // state rewinds exactly, then re-apply so the walk keeps moving.
    if (step % 4 == 3) {
      state->Revert();
      ASSERT_NEAR(state->Score(), score_before, kTol)
          << measure.Name() << " revert broke at step " << step;
      Dataset after = world.masked;
      world.masked = before;
      ASSERT_NEAR(state->Score(), bound->Compute(world.masked), kTol);
      world.masked = after;
      state->ApplyDelta(world.masked, deltas);
      ASSERT_NEAR(state->Score(), full, kTol)
          << measure.Name() << " re-apply after revert at step " << step;
    }
  }
}

TEST(DeltaEvalTest, CtbIlMatchesFullEvaluation) {
  RunMeasureSequence(CtbIl(2), 11, 120, 6);
}

TEST(DeltaEvalTest, DbIlMatchesFullEvaluation) {
  RunMeasureSequence(DbIl(), 12, 120, 6);
}

TEST(DeltaEvalTest, EbIlMatchesFullEvaluation) {
  RunMeasureSequence(EbIl(), 13, 120, 6);
}

TEST(DeltaEvalTest, IntervalDisclosureMatchesFullEvaluation) {
  RunMeasureSequence(IntervalDisclosure(10.0), 14, 120, 6);
}

TEST(DeltaEvalTest, DbrlMatchesFullEvaluation) {
  RunMeasureSequence(DistanceBasedRecordLinkage(), 15, 120, 6);
}

TEST(DeltaEvalTest, PrlMatchesFullEvaluation) {
  RunMeasureSequence(ProbabilisticRecordLinkage(20), 16, 60, 6);
}

TEST(DeltaEvalTest, RsrlMatchesFullEvaluation) {
  RunMeasureSequence(RankSwappingRecordLinkage(15.0), 17, 120, 6);
}

TEST(DeltaEvalTest, WideBatchesTriggerRebuildAndStayExact) {
  // Batches regularly exceeding the rebuild threshold take the fallback
  // path; scores must stay exact and revertible either way.
  RunMeasureSequence(DistanceBasedRecordLinkage(), 21, 40, 24,
                     /*force_rebuilds=*/true);
  RunMeasureSequence(RankSwappingRecordLinkage(15.0), 22, 40, 24,
                     /*force_rebuilds=*/true);
  RunMeasureSequence(CtbIl(2), 23, 40, 24, /*force_rebuilds=*/true);
  RunMeasureSequence(ProbabilisticRecordLinkage(10), 24, 20, 24,
                     /*force_rebuilds=*/true);
}

TEST(DeltaEvalTest, PrlWideAttributeCountsMatchFullEvaluation) {
  // The compressed pattern-histogram state has no dense-layout attribute
  // cap: 9-16 protected attributes (2^9..2^16 pattern spaces) must track
  // the full-evaluation oracle exactly, including through rebuilds.
  for (int num_attrs : {9, 12, 16}) {
    std::vector<int> cards(static_cast<size_t>(num_attrs), 3);
    World world = MakeWorldWithCards(100 + static_cast<uint64_t>(num_attrs),
                                     /*rows=*/60, cards);
    RunMeasureSequence(ProbabilisticRecordLinkage(10),
                       200 + static_cast<uint64_t>(num_attrs),
                       /*steps=*/12, /*max_cells=*/6, /*force_rebuilds=*/false,
                       std::move(world));
  }
  // And with rebuilds forced on every batch (the revertible-rebuild path).
  World world = MakeWorldWithCards(131, /*rows=*/50,
                                   std::vector<int>(12, 3));
  RunMeasureSequence(ProbabilisticRecordLinkage(10), 231, /*steps=*/8,
                     /*max_cells=*/6, /*force_rebuilds=*/true,
                     std::move(world));
}

TEST(DeltaEvalTest, SegmentBatchesSpanningGenomeMatchFullEvaluation) {
  // Crossover-style segments from 1% to 100% of the genome, against every
  // measure: small segments stay incremental, large ones cross each
  // measure's own rebuild threshold — both must track the oracle and
  // revert exactly.
  std::vector<std::unique_ptr<Measure>> measures;
  measures.push_back(std::make_unique<CtbIl>(2));
  measures.push_back(std::make_unique<DbIl>());
  measures.push_back(std::make_unique<EbIl>());
  measures.push_back(std::make_unique<IntervalDisclosure>(10.0));
  measures.push_back(std::make_unique<DistanceBasedRecordLinkage>());
  measures.push_back(std::make_unique<ProbabilisticRecordLinkage>(10));
  measures.push_back(std::make_unique<RankSwappingRecordLinkage>(15.0));

  World world = MakeWorld(71, /*rows=*/90);
  Rng donor_rng(72);
  Dataset donor = protection::Pram(0.4)
                      .Protect(world.original, world.attrs, &donor_rng)
                      .ValueOrDie();
  core::GenomeLayout layout(world.attrs, world.original.num_rows());
  int64_t genome = layout.Length();

  for (const auto& measure : measures) {
    auto bound =
        std::move(measure->Bind(world.original, world.attrs)).ValueOrDie();
    Dataset masked = world.masked.Clone();
    auto state = bound->BindState(masked);
    Rng rng(73);
    for (double fraction : {0.01, 0.05, 0.25, 0.5, 1.0}) {
      auto length = static_cast<int64_t>(fraction * static_cast<double>(genome));
      if (length < 1) length = 1;
      int64_t s = length >= genome
                      ? 0
                      : static_cast<int64_t>(rng.UniformInt(0, genome - length));
      double score_before = state->Score();
      Dataset before = masked.Clone();
      auto segment = core::CrossoverSegmentSwap(layout, donor, &masked, s,
                                                s + length - 1);
      state->ApplySegment(masked, segment);
      double full = bound->Compute(masked);
      ASSERT_NEAR(state->Score(), full, kTol)
          << measure->Name() << " diverged on a " << fraction << " segment";
      state->RevertSegment();
      ASSERT_NEAR(state->Score(), score_before, kTol)
          << measure->Name() << " revert broke on a " << fraction
          << " segment";
      masked = std::move(before);
    }
  }
}

TEST(DeltaEvalTest, SegmentDeltaAppendMatchesFromCells) {
  // The operators' streaming Append and the generic FromCells grouping must
  // produce the same segment view for row-major batches.
  std::vector<CellDelta> cells{{0, 0, 1, 2}, {0, 2, 3, 4}, {1, 1, 0, 5},
                               {4, 0, 2, 0}, {4, 1, 1, 3}};
  SegmentDelta streamed;
  for (const CellDelta& cell : cells) {
    streamed.Append(cell.row, cell.attr, cell.old_code, cell.new_code);
  }
  SegmentDelta grouped = SegmentDelta::FromCells(cells);
  ASSERT_EQ(streamed.num_cells(), grouped.num_cells());
  ASSERT_EQ(streamed.rows().size(), grouped.rows().size());
  for (size_t r = 0; r < streamed.rows().size(); ++r) {
    EXPECT_EQ(streamed.rows()[r].row, grouped.rows()[r].row);
    ASSERT_EQ(streamed.rows()[r].cells.size(), grouped.rows()[r].cells.size());
    for (size_t c = 0; c < streamed.rows()[r].cells.size(); ++c) {
      EXPECT_EQ(streamed.rows()[r].cells[c].attr,
                grouped.rows()[r].cells[c].attr);
      EXPECT_EQ(streamed.rows()[r].cells[c].old_code,
                grouped.rows()[r].cells[c].old_code);
      EXPECT_EQ(streamed.rows()[r].cells[c].new_code,
                grouped.rows()[r].cells[c].new_code);
    }
  }
}

TEST(DeltaEvalTest, FitnessStateRebuildSizedSegmentsMatchAndRevert) {
  // Rebuild-sized segments route FitnessState::ApplyDelta through the
  // concurrent per-measure path; scores must match a full Evaluate and
  // revert exactly, and a forced global rebuild fraction must not change
  // the numbers.
  World world = MakeWorld(81, /*rows=*/80);
  Rng donor_rng(82);
  Dataset donor = protection::Pram(0.4)
                      .Protect(world.original, world.attrs, &donor_rng)
                      .ValueOrDie();
  core::GenomeLayout layout(world.attrs, world.original.num_rows());
  int64_t genome = layout.Length();

  FitnessEvaluator::Options defaults;
  defaults.prl_em_iterations = 10;
  FitnessEvaluator::Options forced = defaults;
  forced.delta_rebuild_fraction = 0.25;  // the old global cliff
  forced.measure_rebuild_fractions = {{"DBRL", 0.2}};
  for (const auto& options : {defaults, forced}) {
    auto evaluator =
        std::move(FitnessEvaluator::Create(world.original, world.attrs,
                                           options))
            .ValueOrDie();
    Dataset masked = world.masked.Clone();
    auto state = evaluator->BindState(masked);
    Rng rng(83);
    for (double fraction : {0.3, 0.6, 1.0}) {
      auto length = static_cast<int64_t>(fraction * static_cast<double>(genome));
      int64_t s = length >= genome
                      ? 0
                      : static_cast<int64_t>(rng.UniformInt(0, genome - length));
      double score_before = state->breakdown().score;
      Dataset before = masked.Clone();
      auto segment = core::CrossoverSegmentSwap(layout, donor, &masked, s,
                                                s + length - 1);
      state->ApplyDelta(masked, segment);
      FitnessBreakdown full = evaluator->Evaluate(masked);
      ASSERT_NEAR(state->breakdown().score, full.score, kTol);
      ASSERT_NEAR(state->breakdown().il, full.il, kTol);
      ASSERT_NEAR(state->breakdown().dr, full.dr, kTol);
      state->Revert();
      ASSERT_NEAR(state->breakdown().score, score_before, kTol);
      masked = std::move(before);
    }
  }
}

TEST(DeltaEvalTest, SingleCellMutationsStressRankWindows) {
  // Pure single-cell walks exercise the RSRL mid-rank flip handling (every
  // mutation shifts a masked mid-rank by one).
  RunMeasureSequence(RankSwappingRecordLinkage(15.0), 31, 250, 1);
  RunMeasureSequence(IntervalDisclosure(10.0), 32, 250, 1);
}

TEST(DeltaEvalTest, FitnessStateMatchesEvaluatorAndReverts) {
  World world = MakeWorld(41);
  FitnessEvaluator::Options options;
  options.prl_em_iterations = 20;
  auto evaluator =
      std::move(FitnessEvaluator::Create(world.original, world.attrs, options))
          .ValueOrDie();
  auto state = evaluator->BindState(world.masked);

  FitnessBreakdown full = evaluator->Evaluate(world.masked);
  EXPECT_NEAR(state->breakdown().score, full.score, kTol);
  EXPECT_NEAR(state->breakdown().il, full.il, kTol);
  EXPECT_NEAR(state->breakdown().dr, full.dr, kTol);

  Rng rng(42);
  for (int step = 0; step < 40; ++step) {
    double score_before = state->breakdown().score;
    auto deltas = RandomBatch(&world.masked, world.attrs, &rng, 5);
    state->ApplyDelta(world.masked, deltas);
    full = evaluator->Evaluate(world.masked);
    ASSERT_NEAR(state->breakdown().score, full.score, kTol) << "step " << step;
    ASSERT_NEAR(state->breakdown().ctbil, full.ctbil, kTol);
    ASSERT_NEAR(state->breakdown().dbil, full.dbil, kTol);
    ASSERT_NEAR(state->breakdown().ebil, full.ebil, kTol);
    ASSERT_NEAR(state->breakdown().id, full.id, kTol);
    ASSERT_NEAR(state->breakdown().dbrl, full.dbrl, kTol);
    ASSERT_NEAR(state->breakdown().prl, full.prl, kTol);
    ASSERT_NEAR(state->breakdown().rsrl, full.rsrl, kTol);
    if (step % 5 == 4) {
      state->Revert();
      ASSERT_NEAR(state->breakdown().score, score_before, kTol);
      state->ApplyDelta(world.masked, deltas);
    }
  }
}

TEST(DeltaEvalTest, FitnessStateRespectsAblation) {
  World world = MakeWorld(51);
  FitnessEvaluator::Options options;
  options.use_ctbil = false;
  options.use_prl = false;
  auto evaluator =
      std::move(FitnessEvaluator::Create(world.original, world.attrs, options))
          .ValueOrDie();
  auto state = evaluator->BindState(world.masked);
  EXPECT_TRUE(std::isnan(state->breakdown().ctbil));
  EXPECT_TRUE(std::isnan(state->breakdown().prl));

  Rng rng(52);
  for (int step = 0; step < 10; ++step) {
    auto deltas = RandomBatch(&world.masked, world.attrs, &rng, 4);
    state->ApplyDelta(world.masked, deltas);
    FitnessBreakdown full = evaluator->Evaluate(world.masked);
    ASSERT_NEAR(state->breakdown().score, full.score, kTol);
    ASSERT_TRUE(std::isnan(state->breakdown().ctbil));
  }
}

TEST(DeltaEvalTest, ShardRowsPartitionIsContiguousAndComplete) {
  // The shard geometry: contiguous ascending ranges covering [0, rows)
  // exactly once, with empty ranges (rows < shards) skipped by
  // ForEachShard so they contribute identity to merges.
  for (int64_t rows : {0, 1, 5, 7, 8, 64, 100}) {
    for (int shards : {1, 3, 8}) {
      int64_t expect_begin = 0;
      for (int s = 0; s < shards; ++s) {
        RowRange range = ShardRows(rows, s, shards);
        EXPECT_EQ(range.begin, expect_begin);
        EXPECT_LE(range.begin, range.end);
        expect_begin = range.end;
      }
      EXPECT_EQ(expect_begin, rows);
      std::vector<int64_t> visited(static_cast<size_t>(rows), 0);
      ForEachShard(rows, shards, [&](int shard, RowRange range) {
        EXPECT_FALSE(range.empty()) << "empty shard " << shard << " ran";
        for (int64_t r = range.begin; r < range.end; ++r) {
          visited[static_cast<size_t>(r)] += 1;
        }
      });
      for (int64_t count : visited) EXPECT_EQ(count, 1);
    }
  }
}

std::vector<std::unique_ptr<Measure>> AllMeasuresForShardTests() {
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

/// A fixed walk (mutation batches, a revert, then a rebuild-sized crossover
/// segment and its revert), bound and run on a private scheduler with
/// `workers` threads — so every shard count inside resolves to `workers`.
/// Every score is checked against a from-scratch Compute of the file it
/// describes; the returned trace must not depend on `workers`.
std::vector<double> ShardWalk(const Measure& measure, const World& world,
                              const Dataset& donor, int workers) {
  std::vector<double> scores;
  evocat::testing::RunOnScheduler(workers, [&] {
    auto bound =
        std::move(measure.Bind(world.original, world.attrs)).ValueOrDie();
    Dataset masked = world.masked.Clone();
    auto state = bound->BindState(masked);
    auto record = [&](const Dataset& file, const char* what) {
      scores.push_back(state->Score());
      EXPECT_NEAR(state->Score(), bound->Compute(file), kTol)
          << measure.Name() << " on " << workers << " workers, " << what
          << " at score " << scores.size() - 1;
    };
    record(masked, "bind");
    Rng rng(97);
    for (int step = 0; step < 8; ++step) {
      Dataset before = masked.Clone();
      auto deltas = RandomBatch(&masked, world.attrs, &rng, 5);
      state->ApplyDelta(masked, deltas);
      record(masked, "apply");
      if (step == 3) {
        state->Revert();
        record(before, "revert");
        state->ApplyDelta(masked, deltas);
      }
    }
    core::GenomeLayout layout(world.attrs, world.original.num_rows());
    int64_t genome = layout.Length();
    int64_t length = std::max<int64_t>(1, genome * 6 / 10);
    Dataset before = masked.Clone();
    auto segment =
        core::CrossoverSegmentSwap(layout, donor, &masked, 0, length - 1);
    state->ApplySegment(masked, segment);
    record(masked, "crossover leg");
    state->RevertSegment();
    record(before, "crossover revert");
  });
  return scores;
}

TEST(DeltaEvalTest, ShardCountsAreBitIdenticalIncludingRebuilds) {
  // Bound and walked on 1, 3 and 8 workers (shard counts 1, 3, 8), every
  // measure must track Compute and produce the same walk bit-for-bit,
  // including the rebuild-sized crossover leg.
  World world = MakeWorld(91, /*rows=*/120);
  Rng donor_rng(92);
  Dataset donor = protection::Pram(0.4)
                      .Protect(world.original, world.attrs, &donor_rng)
                      .ValueOrDie();
  for (const auto& measure : AllMeasuresForShardTests()) {
    auto baseline = ShardWalk(*measure, world, donor, /*workers=*/1);
    for (int workers : {3, 8}) {
      auto scores = ShardWalk(*measure, world, donor, workers);
      ASSERT_EQ(scores.size(), baseline.size()) << measure->Name();
      for (size_t i = 0; i < scores.size(); ++i) {
        ASSERT_EQ(scores[i], baseline[i])
            << measure->Name() << " with " << workers
            << " shards diverged at score " << i;
      }
    }
  }
}

TEST(DeltaEvalTest, RowsFewerThanShardsContributeIdentity) {
  // Regression for the empty-shard merge: with 5 rows on 8 workers, three
  // shard ranges are empty; they must contribute identity to every merge
  // (finite scores that match Compute) — not NaN partials.
  World world = MakeWorld(95, /*rows=*/5);
  Rng donor_rng(96);
  Dataset donor = protection::Pram(0.4)
                      .Protect(world.original, world.attrs, &donor_rng)
                      .ValueOrDie();
  for (const auto& measure : AllMeasuresForShardTests()) {
    auto scores = ShardWalk(*measure, world, donor, /*workers=*/8);
    for (size_t i = 0; i < scores.size(); ++i) {
      ASSERT_TRUE(std::isfinite(scores[i]))
          << measure->Name() << " produced a non-finite score at " << i;
    }
  }
}

TEST(DeltaEvalTest, ConcurrentMeasureFanOutReadsSharedSegment) {
  // Heavy segments fan out to every measure at once, all reading the same
  // SegmentDelta (its row view included) from different workers. Legs run
  // from 1/12 to 1/2 of the genome — heavy for the fan-out, and rebuild-
  // sized for some measures but not others — so incremental and rebuild
  // paths run side by side; each must match a full Evaluate and revert
  // exactly.
  World world = MakeWorld(87, /*rows=*/120);
  Rng donor_rng(88);
  Dataset donor = protection::Pram(0.4)
                      .Protect(world.original, world.attrs, &donor_rng)
                      .ValueOrDie();
  FitnessEvaluator::Options options;
  options.prl_em_iterations = 10;
  evocat::testing::RunOnScheduler(4, [&] {
    auto evaluator = std::move(FitnessEvaluator::Create(
                                   world.original, world.attrs, options))
                         .ValueOrDie();
    Dataset masked = world.masked.Clone();
    auto state = evaluator->BindState(masked);
    core::GenomeLayout layout(world.attrs, world.original.num_rows());
    int64_t genome = layout.Length();
    Rng rng(89);
    for (int leg = 0; leg < 50; ++leg) {
      auto length =
          static_cast<int64_t>(rng.UniformInt(genome / 12, genome / 2));
      auto s = static_cast<int64_t>(rng.UniformInt(0, genome - length));
      double score_before = state->breakdown().score;
      Dataset before = masked.Clone();
      auto segment = core::CrossoverSegmentSwap(layout, donor, &masked, s,
                                                s + length - 1);
      state->ApplyDelta(masked, segment);
      FitnessBreakdown full = evaluator->Evaluate(masked);
      ASSERT_NEAR(state->breakdown().ctbil, full.ctbil, kTol) << "leg " << leg;
      ASSERT_NEAR(state->breakdown().dbil, full.dbil, kTol) << "leg " << leg;
      ASSERT_NEAR(state->breakdown().ebil, full.ebil, kTol) << "leg " << leg;
      ASSERT_NEAR(state->breakdown().id, full.id, kTol) << "leg " << leg;
      ASSERT_NEAR(state->breakdown().dbrl, full.dbrl, kTol) << "leg " << leg;
      ASSERT_NEAR(state->breakdown().prl, full.prl, kTol) << "leg " << leg;
      ASSERT_NEAR(state->breakdown().rsrl, full.rsrl, kTol) << "leg " << leg;
      ASSERT_NEAR(state->breakdown().score, full.score, kTol) << "leg " << leg;
      state->Revert();
      ASSERT_EQ(state->breakdown().score, score_before) << "leg " << leg;
      masked = std::move(before);
    }
  });
}

TEST(DeltaEvalTest, CowOffspringKeepParentStateValid) {
  // Engine-shaped usage: the child is a COW clone of the parent, gets one
  // mutated cell, and the parent's state advances and reverts against it.
  World world = MakeWorld(61);
  auto evaluator =
      std::move(FitnessEvaluator::Create(world.original, world.attrs))
          .ValueOrDie();
  auto state = evaluator->BindState(world.masked);
  Rng rng(62);
  for (int step = 0; step < 10; ++step) {
    Dataset child = world.masked.Clone();
    auto deltas = RandomBatch(&child, world.attrs, &rng, 1);
    ASSERT_TRUE(world.masked.SameCodes(world.masked));  // parent untouched
    state->ApplyDelta(child, deltas);
    FitnessBreakdown full = evaluator->Evaluate(child);
    ASSERT_NEAR(state->breakdown().score, full.score, kTol);
    if (step % 2 == 0) {
      world.masked = std::move(child);  // accept: state stays advanced
    } else {
      state->Revert();  // reject: state rewinds to the parent
      ASSERT_NEAR(state->breakdown().score,
                  evaluator->Evaluate(world.masked).score, kTol);
    }
  }
}

}  // namespace
}  // namespace metrics
}  // namespace evocat
