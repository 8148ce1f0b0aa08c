#include "experiments/pareto.h"

#include <gtest/gtest.h>

namespace evocat {
namespace experiments {
namespace {

api::MemberSummary P(double il, double dr) {
  api::MemberSummary summary;
  summary.origin = "p";
  summary.fitness.il = il;
  summary.fitness.dr = dr;
  summary.fitness.score = (il + dr) / 2.0;
  return summary;
}

TEST(DominatesTest, StrictAndNonStrictCases) {
  EXPECT_TRUE(Dominates(P(10, 10), P(20, 20)));
  EXPECT_TRUE(Dominates(P(10, 20), P(10, 30)));   // equal IL, better DR
  EXPECT_TRUE(Dominates(P(10, 30), P(20, 30)));   // better IL, equal DR
  EXPECT_FALSE(Dominates(P(10, 10), P(10, 10)));  // equal: no domination
  EXPECT_FALSE(Dominates(P(10, 30), P(30, 10)));  // trade-off: incomparable
  EXPECT_FALSE(Dominates(P(20, 20), P(10, 10)));
}

TEST(ParetoFrontTest, ExtractsNonDominatedSortedByIl) {
  std::vector<api::MemberSummary> members = {
      P(30, 10), P(10, 30), P(20, 20), P(25, 25), P(40, 40)};
  auto front = ParetoFrontIndices(members);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_DOUBLE_EQ(members[front[0]].fitness.il, 10);  // (10,30)
  EXPECT_DOUBLE_EQ(members[front[1]].fitness.il, 20);  // (20,20)
  EXPECT_DOUBLE_EQ(members[front[2]].fitness.il, 30);  // (30,10)
}

TEST(ParetoFrontTest, SinglePointAndEmpty) {
  EXPECT_TRUE(ParetoFrontIndices({}).empty());
  auto front = ParetoFrontIndices({P(5, 5)});
  EXPECT_EQ(front.size(), 1u);
}

TEST(ParetoFrontTest, DuplicatesCollapse) {
  std::vector<api::MemberSummary> members = {P(10, 10), P(10, 10), P(5, 20)};
  auto front = ParetoFrontIndices(members);
  EXPECT_EQ(front.size(), 2u);  // one copy of (10,10) plus (5,20)
}

TEST(HypervolumeTest, SinglePointRectangle) {
  // Point (50, 50) vs reference (100, 100): rectangle 50x50 of 100x100.
  EXPECT_DOUBLE_EQ(DominatedHypervolume({P(50, 50)}), 0.25);
}

TEST(HypervolumeTest, OriginDominatesEverything) {
  EXPECT_DOUBLE_EQ(DominatedHypervolume({P(0, 0)}), 1.0);
}

TEST(HypervolumeTest, PointsBeyondReferenceContributeNothing) {
  EXPECT_DOUBLE_EQ(DominatedHypervolume({P(100, 50)}), 0.0);
  EXPECT_DOUBLE_EQ(DominatedHypervolume({P(120, 10)}), 0.0);
  EXPECT_DOUBLE_EQ(DominatedHypervolume({}), 0.0);
}

TEST(HypervolumeTest, TwoPointStaircase) {
  // (20, 60) and (60, 20) vs (100, 100):
  // sweep: (20,60): (100-20)*(100-60) = 3200; (60,20): (100-60)*(60-20) =
  // 1600 -> total 4800 / 10000.
  EXPECT_DOUBLE_EQ(DominatedHypervolume({P(20, 60), P(60, 20)}), 0.48);
}

TEST(HypervolumeTest, DominatedPointAddsNothing) {
  double front_only = DominatedHypervolume({P(20, 60), P(60, 20)});
  double with_dominated =
      DominatedHypervolume({P(20, 60), P(60, 20), P(70, 70)});
  EXPECT_DOUBLE_EQ(front_only, with_dominated);
}

TEST(HypervolumeTest, MonotoneUnderImprovement) {
  // Moving a front point toward the origin can only grow the hypervolume.
  double before = DominatedHypervolume({P(40, 40), P(20, 70)});
  double after = DominatedHypervolume({P(30, 35), P(20, 70)});
  EXPECT_GT(after, before);
}

TEST(AnalyzeParetoTest, AggregatesConsistently) {
  std::vector<api::MemberSummary> members = {P(30, 10), P(10, 30), P(20, 20),
                                            P(25, 25), P(40, 40)};
  auto stats = AnalyzePareto(members);
  EXPECT_EQ(stats.front.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.dominated_fraction, 2.0 / 5.0);
  EXPECT_GT(stats.hypervolume, 0.0);
  EXPECT_LT(stats.hypervolume, 1.0);
  // Front is sorted ascending in IL and descending in DR.
  for (size_t i = 1; i < stats.front.size(); ++i) {
    EXPECT_LT(stats.front[i - 1].fitness.il, stats.front[i].fitness.il);
    EXPECT_GT(stats.front[i - 1].fitness.dr, stats.front[i].fitness.dr);
  }
}

TEST(AnalyzeParetoTest, AllOnFront) {
  auto stats = AnalyzePareto({P(10, 30), P(20, 20), P(30, 10)});
  EXPECT_EQ(stats.front.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.dominated_fraction, 0.0);
}

}  // namespace
}  // namespace experiments
}  // namespace evocat
