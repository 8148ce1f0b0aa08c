#include "common/math_utils.h"

#include <cmath>

#include <gtest/gtest.h>

namespace evocat {
namespace {

TEST(EntropyTest, UniformDistribution) {
  EXPECT_NEAR(Entropy({0.25, 0.25, 0.25, 0.25}), 2.0, 1e-12);
}

TEST(EntropyTest, DegenerateDistributionIsZero) {
  EXPECT_DOUBLE_EQ(Entropy({1.0, 0.0, 0.0}), 0.0);
}

TEST(EntropyTest, UnnormalizedInputIsNormalized) {
  EXPECT_NEAR(Entropy({2.0, 2.0}), 1.0, 1e-12);
  EXPECT_NEAR(Entropy({10.0, 10.0, 10.0, 10.0}), 2.0, 1e-12);
}

TEST(EntropyTest, EmptyAndZeroInputs) {
  EXPECT_DOUBLE_EQ(Entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(Entropy({0.0, 0.0}), 0.0);
}

TEST(EntropyTest, KnownBiasedCoin) {
  double h = Entropy({0.9, 0.1});
  EXPECT_NEAR(h, -(0.9 * std::log2(0.9) + 0.1 * std::log2(0.1)), 1e-12);
}

TEST(EntropyTest, FromCountsMatchesProbabilities) {
  EXPECT_NEAR(Entropy({30, 10}), Entropy({0.75, 0.25}), 1e-12);
}

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(VarianceTest, Basics) {
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({5.0}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({2.0, 4.0}), 1.0);  // population variance
  EXPECT_NEAR(StdDev({2.0, 4.0}), 1.0, 1e-12);
}

TEST(MinMaxTest, Basics) {
  EXPECT_DOUBLE_EQ(Min({3.0, -1.0, 2.0}), -1.0);
  EXPECT_DOUBLE_EQ(Max({3.0, -1.0, 2.0}), 3.0);
  EXPECT_TRUE(std::isinf(Min({})));
  EXPECT_TRUE(std::isinf(Max({})));
}

TEST(PercentileTest, MedianAndExtremes) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100.0), 5.0);
}

TEST(PercentileTest, Interpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 25.0), 2.5);
}

TEST(PercentileTest, UnsortedInputHandled) {
  std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 50.0), 3.0);
}

TEST(PercentileTest, EmptyIsZero) { EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0); }

TEST(ClampTest, Basics) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(11.0, 0.0, 10.0), 10.0);
}

TEST(XLogXTest, ZeroConvention) {
  EXPECT_DOUBLE_EQ(XLogX(0.0), 0.0);
  EXPECT_DOUBLE_EQ(XLogX(-1.0), 0.0);
  EXPECT_NEAR(XLogX(2.0), 2.0, 1e-12);  // 2*log2(2) = 2
}

TEST(NearlyEqualTest, Tolerance) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-10));
  EXPECT_FALSE(NearlyEqual(1.0, 1.001));
  EXPECT_TRUE(NearlyEqual(1.0, 1.001, 0.01));
}

}  // namespace
}  // namespace evocat
