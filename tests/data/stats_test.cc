#include "data/stats.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"

namespace evocat {
namespace {

using testing::BuildDataset;
using testing::TestAttr;

Dataset ThreeCategoryColumn() {
  // Codes: 0 x3, 1 x2, 2 x1.
  return BuildDataset({{"A", AttrKind::kOrdinal, 3}},
                      {{0}, {0}, {0}, {1}, {1}, {2}});
}

TEST(CategoryCountsTest, CountsPerCode) {
  Dataset dataset = ThreeCategoryColumn();
  EXPECT_EQ(CategoryCounts(dataset, 0), (std::vector<int64_t>{3, 2, 1}));
}

TEST(CategoryCountsTest, UnsampledCategoriesAreZero) {
  Dataset dataset = BuildDataset({{"A", AttrKind::kNominal, 4}}, {{1}});
  EXPECT_EQ(CategoryCounts(dataset, 0), (std::vector<int64_t>{0, 1, 0, 0}));
}

TEST(CategoryFrequenciesTest, NormalizedToOne) {
  Dataset dataset = ThreeCategoryColumn();
  auto freqs = CategoryFrequencies(dataset, 0);
  EXPECT_DOUBLE_EQ(freqs[0], 0.5);
  EXPECT_DOUBLE_EQ(freqs[1], 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(freqs[2], 1.0 / 6.0);
}

TEST(ContingencyTableTest, UnivariateMatchesCounts) {
  Dataset dataset = ThreeCategoryColumn();
  auto table = ContingencyTable::Build(dataset, {0}).ValueOrDie();
  EXPECT_EQ(table.total(), 6);
  EXPECT_EQ(table.Count({0}), 3);
  EXPECT_EQ(table.Count({1}), 2);
  EXPECT_EQ(table.Count({2}), 1);
  EXPECT_EQ(table.num_cells(), 3u);
}

TEST(ContingencyTableTest, BivariateJointCounts) {
  Dataset dataset = BuildDataset({{"A", AttrKind::kNominal, 2},
                                  {"B", AttrKind::kNominal, 2}},
                                 {{0, 0}, {0, 0}, {0, 1}, {1, 1}});
  auto table = ContingencyTable::Build(dataset, {0, 1}).ValueOrDie();
  EXPECT_EQ(table.Count({0, 0}), 2);
  EXPECT_EQ(table.Count({0, 1}), 1);
  EXPECT_EQ(table.Count({1, 1}), 1);
  EXPECT_EQ(table.Count({1, 0}), 0);
}

TEST(ContingencyTableTest, L1DistanceIdenticalIsZero) {
  Dataset dataset = ThreeCategoryColumn();
  auto a = ContingencyTable::Build(dataset, {0}).ValueOrDie();
  auto b = ContingencyTable::Build(dataset, {0}).ValueOrDie();
  EXPECT_EQ(a.L1Distance(b), 0);
}

TEST(ContingencyTableTest, L1DistanceCountsBothSides) {
  Dataset x = BuildDataset({{"A", AttrKind::kNominal, 3}}, {{0}, {0}, {1}});
  Dataset y = BuildDataset({{"A", AttrKind::kNominal, 3}}, {{0}, {2}, {2}});
  auto tx = ContingencyTable::Build(x, {0}).ValueOrDie();
  auto ty = ContingencyTable::Build(y, {0}).ValueOrDie();
  // x: {0:2, 1:1}; y: {0:1, 2:2} -> |2-1| + |1-0| + |0-2| = 4.
  EXPECT_EQ(tx.L1Distance(ty), 4);
  EXPECT_EQ(ty.L1Distance(tx), 4);  // symmetric
}

TEST(ContingencyTableTest, RejectsTooManyAttrs) {
  Dataset dataset = BuildDataset({{"A", AttrKind::kNominal, 2},
                                  {"B", AttrKind::kNominal, 2},
                                  {"C", AttrKind::kNominal, 2},
                                  {"D", AttrKind::kNominal, 2},
                                  {"E", AttrKind::kNominal, 2}},
                                 {{0, 0, 0, 0, 0}});
  EXPECT_FALSE(ContingencyTable::Build(dataset, {0, 1, 2, 3, 4}).ok());
  EXPECT_FALSE(ContingencyTable::Build(dataset, {}).ok());
  EXPECT_FALSE(ContingencyTable::Build(dataset, {9}).ok());
}

TEST(ContingencyTableTest, PackKeyDistinctness) {
  // Different code tuples map to different keys (within 16-bit cardinality).
  auto k1 = ContingencyTable::PackKey({1, 2});
  auto k2 = ContingencyTable::PackKey({2, 1});
  auto k3 = ContingencyTable::PackKey({1, 2, 0});
  EXPECT_NE(k1, k2);
  EXPECT_EQ(k1, k3);  // trailing zero attribute packs identically by design
}

TEST(CategoryMidranksTest, TieAwarePositions) {
  Dataset dataset = ThreeCategoryColumn();
  auto midranks = CategoryMidranks(dataset, 0);
  // Category 0 occupies positions 1..3 -> 2; category 1 positions 4..5 ->
  // 4.5; category 2 position 6 -> 6.
  EXPECT_DOUBLE_EQ(midranks[0], 2.0);
  EXPECT_DOUBLE_EQ(midranks[1], 4.5);
  EXPECT_DOUBLE_EQ(midranks[2], 6.0);
}

TEST(CategoryMidranksTest, EmptyCategoryGetsBoundary) {
  Dataset dataset = BuildDataset({{"A", AttrKind::kOrdinal, 3}}, {{0}, {2}});
  auto midranks = CategoryMidranks(dataset, 0);
  EXPECT_DOUBLE_EQ(midranks[0], 1.0);
  EXPECT_DOUBLE_EQ(midranks[1], 1.5);  // between the two occupied positions
  EXPECT_DOUBLE_EQ(midranks[2], 2.0);
}

TEST(CategoryMidranksTest, MonotoneInCode) {
  Dataset dataset = ThreeCategoryColumn();
  auto midranks = CategoryMidranks(dataset, 0);
  for (size_t c = 1; c < midranks.size(); ++c) {
    EXPECT_GT(midranks[c], midranks[c - 1]);
  }
}

TEST(SubsetsOfSizeTest, EnumeratesLexicographically) {
  auto subsets = SubsetsOfSize(4, 2);
  ASSERT_EQ(subsets.size(), 6u);
  EXPECT_EQ(subsets[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(subsets[1], (std::vector<int>{0, 2}));
  EXPECT_EQ(subsets[5], (std::vector<int>{2, 3}));
}

TEST(SubsetsOfSizeTest, EdgeCases) {
  EXPECT_EQ(SubsetsOfSize(3, 3).size(), 1u);
  EXPECT_EQ(SubsetsOfSize(3, 1).size(), 3u);
  EXPECT_TRUE(SubsetsOfSize(3, 0).empty());
  EXPECT_TRUE(SubsetsOfSize(2, 3).empty());
}

}  // namespace
}  // namespace evocat
