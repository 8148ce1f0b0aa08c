// Behaviour of the three information-loss measures: zero on identity,
// bounds, monotonicity under growing perturbation, and measure-specific
// semantics (CTBIL on distributions, DBIL on cells, EBIL on determinism).

#include <cmath>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "datagen/generator.h"
#include "metrics/ctbil.h"
#include "metrics/dbil.h"
#include "metrics/distance.h"
#include "metrics/ebil.h"
#include "metrics/registry.h"
#include "protection/pram.h"

namespace evocat {
namespace metrics {
namespace {

using evocat::testing::AllAttrs;
using evocat::testing::BuildDataset;
using evocat::testing::TestAttr;

Dataset TestData() {
  auto profile = datagen::UniformTestProfile("m", 300, {8, 5, 12});
  profile.attributes[0].kind = AttrKind::kOrdinal;
  profile.attributes[0].zipf_s = 0.8;
  profile.attributes[2].zipf_s = 0.6;
  return datagen::Generate(profile, 21).ValueOrDie();
}

// ---------------------------------------------------------------------------
// ValueDistance / DistanceTables

TEST(ValueDistanceTest, NominalZeroOne) {
  Attribute attr("N", AttrKind::kNominal);
  for (int c = 0; c < 4; ++c) attr.dictionary().GetOrAdd("c" + std::to_string(c));
  EXPECT_DOUBLE_EQ(ValueDistance(attr, 2, 2), 0.0);
  EXPECT_DOUBLE_EQ(ValueDistance(attr, 0, 3), 1.0);
  EXPECT_DOUBLE_EQ(ValueDistance(attr, 1, 2), 1.0);
}

TEST(ValueDistanceTest, OrdinalNormalizedRankGap) {
  Attribute attr("O", AttrKind::kOrdinal);
  for (int c = 0; c < 5; ++c) attr.dictionary().GetOrAdd("c" + std::to_string(c));
  EXPECT_DOUBLE_EQ(ValueDistance(attr, 0, 4), 1.0);
  EXPECT_DOUBLE_EQ(ValueDistance(attr, 1, 3), 0.5);
  EXPECT_DOUBLE_EQ(ValueDistance(attr, 2, 2), 0.0);
}

TEST(DistanceTablesTest, MatchesValueDistance) {
  Dataset dataset = TestData();
  DistanceTables tables(dataset, {0, 1, 2});
  for (int i = 0; i < 3; ++i) {
    const Attribute& attr = dataset.schema().attribute(i);
    for (int32_t a = 0; a < attr.cardinality(); ++a) {
      for (int32_t b = 0; b < attr.cardinality(); ++b) {
        EXPECT_NEAR(tables.At(static_cast<size_t>(i), a, b),
                    ValueDistance(attr, a, b), 1e-6);
      }
    }
  }
}

TEST(DistanceTablesTest, RecordDistanceIsMeanOfValueDistances) {
  Dataset x = BuildDataset({{"A", AttrKind::kNominal, 3},
                            {"B", AttrKind::kOrdinal, 5}},
                           {{0, 0}});
  Dataset y = BuildDataset({{"A", AttrKind::kNominal, 3},
                            {"B", AttrKind::kOrdinal, 5}},
                           {{1, 2}});
  // Different schemas are fine for the table as long as cardinalities align;
  // build tables over x's schema.
  DistanceTables tables(x, {0, 1});
  EXPECT_DOUBLE_EQ(tables.RecordDistance(x, 0, y, 0), (1.0 + 0.5) / 2.0);
}

// ---------------------------------------------------------------------------
// Identity behaviour (all IL measures must be 0 on an identical copy)

TEST(InformationLossTest, ZeroOnIdentity) {
  Dataset original = TestData();
  Dataset copy = original.Clone();
  auto attrs = AllAttrs(original);
  EXPECT_NEAR(CtbIl(2).Compute(original, copy, attrs).ValueOrDie(), 0.0, 1e-12);
  EXPECT_NEAR(DbIl().Compute(original, copy, attrs).ValueOrDie(), 0.0, 1e-12);
  EXPECT_NEAR(EbIl().Compute(original, copy, attrs).ValueOrDie(), 0.0, 1e-12);
}

// Growing PRAM perturbation must not decrease any IL measure (statistically;
// we test a strongly separated pair of retention levels).
class IlMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(IlMonotonicityTest, MorePerturbationMoreLoss) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  Rng rng_mild(3), rng_harsh(3);
  Dataset mild = protection::Pram(0.9)
                     .Protect(original, attrs, &rng_mild)
                     .ValueOrDie();
  Dataset harsh = protection::Pram(0.2)
                      .Protect(original, attrs, &rng_harsh)
                      .ValueOrDie();
  double mild_loss = 0, harsh_loss = 0;
  switch (GetParam()) {
    case 0:
      mild_loss = CtbIl(2).Compute(original, mild, attrs).ValueOrDie();
      harsh_loss = CtbIl(2).Compute(original, harsh, attrs).ValueOrDie();
      break;
    case 1:
      mild_loss = DbIl().Compute(original, mild, attrs).ValueOrDie();
      harsh_loss = DbIl().Compute(original, harsh, attrs).ValueOrDie();
      break;
    case 2:
      mild_loss = EbIl().Compute(original, mild, attrs).ValueOrDie();
      harsh_loss = EbIl().Compute(original, harsh, attrs).ValueOrDie();
      break;
  }
  EXPECT_LT(mild_loss, harsh_loss);
  EXPECT_GE(mild_loss, 0.0);
  EXPECT_LE(harsh_loss, 100.0);
}

INSTANTIATE_TEST_SUITE_P(AllIlMeasures, IlMonotonicityTest,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// CTBIL specifics

TEST(CtbIlTest, SwapPreservingMarginalsHidesFromDim1) {
  // Swapping values between records preserves univariate tables exactly, so
  // CTBIL(dim=1) is 0 while CTBIL(dim=2) sees the broken joint.
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 2},
                                   {"B", AttrKind::kNominal, 2}},
                                  {{0, 0}, {1, 1}, {0, 0}, {1, 1}});
  Dataset masked = original.Clone();
  // Swap attribute A of records 0 and 1: marginals intact, joint changed.
  masked.SetCode(0, 0, 1);
  masked.SetCode(1, 0, 0);
  EXPECT_DOUBLE_EQ(CtbIl(1).Compute(original, masked, {0, 1}).ValueOrDie(), 0.0);
  EXPECT_GT(CtbIl(2).Compute(original, masked, {0, 1}).ValueOrDie(), 0.0);
}

TEST(CtbIlTest, SingleCellChangeScoresExactly) {
  // n=4 records, one attribute; change one cell: L1 = 2 (one cell -1, one
  // +1), denom = 2n = 8 -> 25 on the 0..100 scale.
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 3}},
                                  {{0}, {0}, {1}, {2}});
  Dataset masked = original.Clone();
  masked.SetCode(0, 0, 1);
  EXPECT_DOUBLE_EQ(CtbIl(1).Compute(original, masked, {0}).ValueOrDie(), 25.0);
}

TEST(CtbIlTest, RejectsBadDimension) {
  auto zero =
      MeasureRegistry::Global().Create("CTBIL", {{"max_dimension", "0"}});
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.status().message().find("CTBIL.max_dimension"),
            std::string::npos)
      << zero.status().ToString();
  EXPECT_TRUE(
      MeasureRegistry::Global().Create("CTBIL", {{"max_dimension", "1"}}).ok());
}

TEST(CtbIlTest, DimensionCapStopsAtAvailableAttrs) {
  Dataset original = TestData();
  Dataset copy = original.Clone();
  // max_dimension larger than attrs: must not crash, still 0 on identity.
  EXPECT_NEAR(CtbIl(4).Compute(original, copy, {0, 1}).ValueOrDie(), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// DBIL specifics

TEST(DbIlTest, SingleNominalChangeScoresExactly) {
  // 4 records x 1 nominal attr, one change -> 100 * (1/4) = 25.
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 3}},
                                  {{0}, {0}, {1}, {2}});
  Dataset masked = original.Clone();
  masked.SetCode(0, 0, 1);
  EXPECT_DOUBLE_EQ(DbIl().Compute(original, masked, {0}).ValueOrDie(), 25.0);
}

TEST(DbIlTest, OrdinalChangesWeightedByRankGap) {
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 5}},
                                  {{0}, {0}, {0}, {0}});
  Dataset masked = original.Clone();
  masked.SetCode(0, 0, 4);  // distance 1.0
  masked.SetCode(1, 0, 1);  // distance 0.25
  EXPECT_DOUBLE_EQ(DbIl().Compute(original, masked, {0}).ValueOrDie(),
                   100.0 * (1.0 + 0.25) / 4.0);
}

TEST(DbIlTest, MaximalNominalScrambleIsHundred) {
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 2}},
                                  {{0}, {0}, {0}});
  Dataset masked = original.Clone();
  for (int64_t r = 0; r < masked.num_rows(); ++r) masked.SetCode(r, 0, 1);
  EXPECT_DOUBLE_EQ(DbIl().Compute(original, masked, {0}).ValueOrDie(), 100.0);
}

// ---------------------------------------------------------------------------
// EBIL specifics

TEST(EbIlTest, InjectiveRecodingIsZero) {
  // A bijective relabelling keeps the original fully determined by the
  // masked value: conditional entropy 0.
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 3}},
                                  {{0}, {1}, {2}, {0}});
  Dataset masked = original.Clone();
  for (int64_t r = 0; r < masked.num_rows(); ++r) {
    masked.SetCode(r, 0, (original.Code(r, 0) + 1) % 3);
  }
  EXPECT_NEAR(EbIl().Compute(original, masked, {0}).ValueOrDie(), 0.0, 1e-12);
}

TEST(EbIlTest, TotalCollapseIsMarginalEntropy) {
  // Masking everything to one category leaves H(O) bits of uncertainty:
  // EBIL = 100 * H(O) / log2(card). Uniform over 4 of 4 categories -> 100.
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 4}},
                                  {{0}, {1}, {2}, {3}});
  Dataset masked = original.Clone();
  for (int64_t r = 0; r < masked.num_rows(); ++r) masked.SetCode(r, 0, 0);
  EXPECT_NEAR(EbIl().Compute(original, masked, {0}).ValueOrDie(), 100.0, 1e-9);
}

TEST(EbIlTest, PartialCollapseScoresBetween) {
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 4}},
                                  {{0}, {1}, {2}, {3}});
  Dataset masked = original.Clone();
  masked.SetCode(1, 0, 0);  // merge {0,1} -> 0; {2,3} untouched
  double loss = EbIl().Compute(original, masked, {0}).ValueOrDie();
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 100.0);
}

// ---------------------------------------------------------------------------
// Validation of the shared measure interface

TEST(MeasureValidationTest, RejectsIncomparableInputs) {
  Dataset original = TestData();
  CtbIl measure(2);
  // Different row count.
  Dataset short_copy = BuildDataset({{"a0", AttrKind::kNominal, 8}}, {{0}});
  EXPECT_FALSE(measure.Compute(original, short_copy, {0}).ok());
  // Different schema object (same shape, different dictionaries).
  Dataset other = TestData();
  Dataset rebuilt = BuildDataset({{"a0", AttrKind::kNominal, 8},
                                  {"a1", AttrKind::kNominal, 5},
                                  {"a2", AttrKind::kNominal, 12}},
                                 {});
  EXPECT_FALSE(measure.Compute(original, rebuilt, {0}).ok());
  // Bad attribute index.
  EXPECT_FALSE(measure.Compute(original, original.Clone(), {99}).ok());
  // Empty attrs.
  EXPECT_FALSE(measure.Compute(original, original.Clone(), {}).ok());
}

}  // namespace
}  // namespace metrics
}  // namespace evocat
