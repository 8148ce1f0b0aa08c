// Behaviour of the four disclosure-risk measures: maximal on identity
// masking, bounded, decreasing under stronger perturbation, and
// attack-specific semantics (rank windows for ID/RSRL, EM for PRL).

#include <cmath>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "datagen/generator.h"
#include "metrics/dbrl.h"
#include "metrics/interval_disclosure.h"
#include "metrics/prl.h"
#include "metrics/registry.h"
#include "metrics/rsrl.h"
#include "protection/pram.h"
#include "protection/rank_swapping.h"

namespace evocat {
namespace metrics {
namespace {

using evocat::testing::AllAttrs;
using evocat::testing::BuildDataset;
using evocat::testing::TestAttr;

Dataset TestData() {
  // Enough cardinality/correlation that most records are distinguishable —
  // linkage on identity masking should then succeed for most records.
  auto profile = datagen::UniformTestProfile("d", 250, {15, 11, 9});
  for (auto& attr : profile.attributes) {
    attr.latent_weight = 0.4;
    attr.zipf_s = 0.4;
  }
  profile.attributes[0].kind = AttrKind::kOrdinal;
  return datagen::Generate(profile, 33).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Identity masking: maximal risk

TEST(DisclosureRiskTest, IntervalDisclosureIsHundredOnIdentity) {
  Dataset original = TestData();
  Dataset copy = original.Clone();
  EXPECT_DOUBLE_EQ(
      IntervalDisclosure(10.0).Compute(original, copy, AllAttrs(original)).ValueOrDie(),
      100.0);
}

TEST(DisclosureRiskTest, LinkageHighOnIdentity) {
  Dataset original = TestData();
  Dataset copy = original.Clone();
  auto attrs = AllAttrs(original);
  // Duplicated records share linkage credit, so the value is below 100 but
  // must be high for this near-unique dataset.
  double dbrl =
      DistanceBasedRecordLinkage().Compute(original, copy, attrs).ValueOrDie();
  double prl =
      ProbabilisticRecordLinkage().Compute(original, copy, attrs).ValueOrDie();
  double rsrl =
      RankSwappingRecordLinkage(15.0).Compute(original, copy, attrs).ValueOrDie();
  EXPECT_GT(dbrl, 60.0);
  EXPECT_GT(prl, 60.0);
  EXPECT_GT(rsrl, 60.0);
  EXPECT_LE(dbrl, 100.0);
  EXPECT_LE(prl, 100.0);
  EXPECT_LE(rsrl, 100.0);
}

TEST(DisclosureRiskTest, ExactTieCreditSplitsUniformly) {
  // Two identical original records, identity masking: each original links to
  // both copies at distance 0 -> credit 1/2 each -> DBRL 50.
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 3}},
                                  {{1}, {1}});
  Dataset copy = original.Clone();
  EXPECT_DOUBLE_EQ(
      DistanceBasedRecordLinkage().Compute(original, copy, {0}).ValueOrDie(),
      50.0);
}

// ---------------------------------------------------------------------------
// Stronger perturbation reduces risk (for each DR measure)

class DrMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(DrMonotonicityTest, MorePerturbationLessRisk) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  Rng rng_mild(3), rng_harsh(3);
  Dataset mild = protection::Pram(0.95)
                     .Protect(original, attrs, &rng_mild)
                     .ValueOrDie();
  Dataset harsh = protection::Pram(0.05)
                      .Protect(original, attrs, &rng_harsh)
                      .ValueOrDie();
  double mild_risk = 0, harsh_risk = 0;
  switch (GetParam()) {
    case 0:
      mild_risk = IntervalDisclosure().Compute(original, mild, attrs).ValueOrDie();
      harsh_risk =
          IntervalDisclosure().Compute(original, harsh, attrs).ValueOrDie();
      break;
    case 1:
      mild_risk =
          DistanceBasedRecordLinkage().Compute(original, mild, attrs).ValueOrDie();
      harsh_risk = DistanceBasedRecordLinkage()
                       .Compute(original, harsh, attrs)
                       .ValueOrDie();
      break;
    case 2:
      mild_risk = ProbabilisticRecordLinkage()
                      .Compute(original, mild, attrs)
                      .ValueOrDie();
      harsh_risk = ProbabilisticRecordLinkage()
                       .Compute(original, harsh, attrs)
                       .ValueOrDie();
      break;
    case 3:
      mild_risk = RankSwappingRecordLinkage(15.0)
                      .Compute(original, mild, attrs)
                      .ValueOrDie();
      harsh_risk = RankSwappingRecordLinkage(15.0)
                       .Compute(original, harsh, attrs)
                       .ValueOrDie();
      break;
  }
  EXPECT_GT(mild_risk, harsh_risk);
  EXPECT_GE(harsh_risk, 0.0);
  EXPECT_LE(mild_risk, 100.0);
}

INSTANTIATE_TEST_SUITE_P(AllDrMeasures, DrMonotonicityTest,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// Interval disclosure specifics

TEST(IntervalDisclosureTest, WiderWindowMoreDisclosure) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  Rng rng(5);
  Dataset masked =
      protection::Pram(0.5).Protect(original, attrs, &rng).ValueOrDie();
  double narrow =
      IntervalDisclosure(2.0).Compute(original, masked, attrs).ValueOrDie();
  double wide =
      IntervalDisclosure(40.0).Compute(original, masked, attrs).ValueOrDie();
  EXPECT_LT(narrow, wide);
}

TEST(IntervalDisclosureTest, RejectsBadWindow) {
  for (const char* window : {"0", "-5", "150"}) {
    auto id =
        MeasureRegistry::Global().Create("ID", {{"window_percent", window}});
    ASSERT_FALSE(id.ok()) << window;
    EXPECT_NE(id.status().message().find("ID.window_percent"),
              std::string::npos)
        << id.status().ToString();
  }
  EXPECT_TRUE(
      MeasureRegistry::Global().Create("ID", {{"window_percent", "100"}}).ok());
}

TEST(IntervalDisclosureTest, UniformCategoryShiftPreservesRanks) {
  // Ranks are positions within each file's own marginal, so shifting every
  // value by a constant number of categories leaves each record at the same
  // rank: rank-based interval disclosure stays 100 (the attacker's rank
  // interval still pins the original). This shift-invariance is a property
  // of rank-based ID, not a leak.
  std::vector<std::vector<int32_t>> rows;
  for (int32_t i = 0; i < 10; ++i) rows.push_back({i});
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 15}}, rows);
  Dataset masked = original.Clone();
  for (int64_t r = 0; r < masked.num_rows(); ++r) {
    masked.SetCode(r, 0, original.Code(r, 0) + 5);
  }
  EXPECT_DOUBLE_EQ(
      IntervalDisclosure(10.0).Compute(original, masked, {0}).ValueOrDie(),
      100.0);
}

TEST(IntervalDisclosureTest, RankRotationOutsideWindowNotDisclosed) {
  // A marginal-preserving permutation (rotate categories by 5 of 10) moves
  // every record 5 ranks away: invisible to a 10% window (1 rank), fully
  // disclosed to a 90% window.
  std::vector<std::vector<int32_t>> rows;
  for (int32_t i = 0; i < 10; ++i) rows.push_back({i});
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 10}}, rows);
  Dataset masked = original.Clone();
  for (int64_t r = 0; r < masked.num_rows(); ++r) {
    masked.SetCode(r, 0, (original.Code(r, 0) + 5) % 10);
  }
  EXPECT_DOUBLE_EQ(
      IntervalDisclosure(10.0).Compute(original, masked, {0}).ValueOrDie(),
      0.0);
  EXPECT_DOUBLE_EQ(
      IntervalDisclosure(90.0).Compute(original, masked, {0}).ValueOrDie(),
      100.0);
}

// ---------------------------------------------------------------------------
// PRL / Fellegi–Sunter specifics

TEST(FellegiSunterTest, EmSeparatesMatchesFromNonMatches) {
  // Synthetic pattern counts over 2 attributes: 100 pairs agree on both
  // (matches), 9900 agree on nothing (non-matches).
  std::vector<double> counts(4, 0.0);
  counts[0b11] = 100.0;
  counts[0b00] = 9900.0;
  auto model = FitFellegiSunter(counts, 2, 100);
  EXPECT_GT(model.m[0], 0.9);
  EXPECT_GT(model.m[1], 0.9);
  EXPECT_LT(model.u[0], 0.1);
  EXPECT_LT(model.u[1], 0.1);
  EXPECT_NEAR(model.match_prevalence, 0.01, 0.005);
}

TEST(FellegiSunterTest, FullAgreementOutweighsPartial) {
  std::vector<double> counts(4, 0.0);
  counts[0b11] = 50.0;
  counts[0b01] = 500.0;
  counts[0b10] = 500.0;
  counts[0b00] = 8950.0;
  auto model = FitFellegiSunter(counts, 2, 100);
  EXPECT_GT(model.PatternWeight(0b11), model.PatternWeight(0b01));
  EXPECT_GT(model.PatternWeight(0b01), model.PatternWeight(0b00));
}

TEST(FellegiSunterTest, WeightsAreFiniteUnderDegenerateCounts) {
  // All pairs agree everywhere: clamping must keep weights finite.
  std::vector<double> counts(4, 0.0);
  counts[0b11] = 1000.0;
  auto model = FitFellegiSunter(counts, 2, 100);
  EXPECT_TRUE(std::isfinite(model.PatternWeight(0b11)));
  EXPECT_TRUE(std::isfinite(model.PatternWeight(0b00)));
}

TEST(FellegiSunterTest, FixedPointEarlyExitPreservesTheModel) {
  // The cold fit stops at a bitwise fixed point; any larger sweep budget
  // must return the identical model (the skipped sweeps are no-ops).
  std::vector<double> counts(4, 0.0);
  counts[0b11] = 100.0;
  counts[0b01] = 300.0;
  counts[0b00] = 9600.0;
  auto converged = FitFellegiSunter(counts, 2, 200);
  auto longer = FitFellegiSunter(counts, 2, 5000);
  EXPECT_EQ(converged.m, longer.m);
  EXPECT_EQ(converged.u, longer.u);
  EXPECT_EQ(converged.match_prevalence, longer.match_prevalence);
}

TEST(PrlTest, RejectsBadConfig) {
  for (const char* iterations : {"0", "-3"}) {
    auto prl = MeasureRegistry::Global().Create(
        "PRL", {{"em_iterations", iterations}});
    ASSERT_FALSE(prl.ok()) << iterations;
    EXPECT_NE(prl.status().message().find("PRL.em_iterations"),
              std::string::npos)
        << prl.status().ToString();
  }
  // The agreement-pattern cap depends on the data, so Bind keeps it.
  std::vector<TestAttr> wide;
  std::vector<int32_t> row;
  for (int k = 0; k < 21; ++k) {
    wide.push_back({"a" + std::to_string(k), AttrKind::kNominal, 2});
    row.push_back(k % 2);
  }
  Dataset original = BuildDataset(wide, {row, row});
  auto prl = MeasureRegistry::Global().Create("PRL").ValueOrDie();
  EXPECT_FALSE(prl->Bind(original, AllAttrs(original)).ok());
}

// ---------------------------------------------------------------------------
// RSRL specifics

TEST(RsrlTest, CandidateWindowCanBeatPlainLinkageOnRankSwapping) {
  // On a rank-swapped file with displacement within the attacker's assumed
  // window, RSRL must find at least as many correct links as it loses to
  // records outside the window — and the true match is always a candidate.
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  Rng rng(7);
  Dataset masked = protection::RankSwapping(5.0)
                       .Protect(original, attrs, &rng)
                       .ValueOrDie();
  double rsrl = RankSwappingRecordLinkage(15.0)
                    .Compute(original, masked, attrs)
                    .ValueOrDie();
  EXPECT_GT(rsrl, 0.0);
  EXPECT_LE(rsrl, 100.0);
}

TEST(RsrlTest, TinyWindowEliminatesFarCandidates) {
  // A marginal-preserving rotation moves every record 10 ranks (of 20).
  // With an assumed 5% window (1 rank) the true match is never a candidate,
  // and any candidate that does pass the window is a wrong link: risk 0.
  std::vector<std::vector<int32_t>> rows;
  for (int32_t i = 0; i < 20; ++i) rows.push_back({i});
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 20}}, rows);
  Dataset masked = original.Clone();
  for (int64_t r = 0; r < masked.num_rows(); ++r) {
    masked.SetCode(r, 0, (original.Code(r, 0) + 10) % 20);
  }
  EXPECT_DOUBLE_EQ(RankSwappingRecordLinkage(5.0)
                       .Compute(original, masked, {0})
                       .ValueOrDie(),
                   0.0);
}

TEST(RsrlTest, RejectsBadAssumedP) {
  for (const char* p : {"0", "100.5"}) {
    auto rsrl =
        MeasureRegistry::Global().Create("RSRL", {{"assumed_p_percent", p}});
    ASSERT_FALSE(rsrl.ok()) << p;
    EXPECT_NE(rsrl.status().message().find("RSRL.assumed_p_percent"),
              std::string::npos)
        << rsrl.status().ToString();
  }
  EXPECT_TRUE(MeasureRegistry::Global()
                  .Create("RSRL", {{"assumed_p_percent", "100"}})
                  .ok());
}

// ---------------------------------------------------------------------------
// Cross-measure sanity: rank swapping defeats naive linkage harder than the
// rank-aware attack on the same file (the Nin et al. motivation).

TEST(CrossMeasureTest, RsrlAtLeastDbrlOnRankSwappedData) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  Rng rng(13);
  Dataset masked = protection::RankSwapping(8.0)
                       .Protect(original, attrs, &rng)
                       .ValueOrDie();
  double dbrl =
      DistanceBasedRecordLinkage().Compute(original, masked, attrs).ValueOrDie();
  double rsrl = RankSwappingRecordLinkage(10.0)
                    .Compute(original, masked, attrs)
                    .ValueOrDie();
  // The constrained candidate set can only remove wrong candidates that beat
  // the true match; allow slack for credit-splitting differences.
  EXPECT_GE(rsrl, dbrl * 0.8);
}

}  // namespace
}  // namespace metrics
}  // namespace evocat
