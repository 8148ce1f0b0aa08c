#include "metrics/fitness.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "datagen/generator.h"
#include "metrics/registry.h"
#include "protection/pram.h"

namespace evocat {
namespace metrics {
namespace {

using evocat::testing::AllAttrs;

Dataset TestData() {
  auto profile = datagen::UniformTestProfile("f", 200, {9, 6, 7});
  profile.attributes[1].kind = AttrKind::kOrdinal;
  return datagen::Generate(profile, 44).ValueOrDie();
}

TEST(AggregateScoreTest, MeanAndMax) {
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kMean, 20.0, 40.0), 30.0);
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kMax, 20.0, 40.0), 40.0);
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kMax, 40.0, 20.0), 40.0);
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kMean, 0.0, 0.0), 0.0);
}

TEST(AggregateScoreTest, PaperPreferenceExample) {
  // Paper §2.3.3: for mean, (IL=20, DR=20) and (IL=0, DR=40) are equal; max
  // separates them, preferring the balanced protection.
  double balanced_mean = AggregateScore(ScoreAggregation::kMean, 20, 20);
  double unbalanced_mean = AggregateScore(ScoreAggregation::kMean, 0, 40);
  EXPECT_DOUBLE_EQ(balanced_mean, unbalanced_mean);
  double balanced_max = AggregateScore(ScoreAggregation::kMax, 20, 20);
  double unbalanced_max = AggregateScore(ScoreAggregation::kMax, 0, 40);
  EXPECT_LT(balanced_max, unbalanced_max);
}

TEST(AggregationNamesTest, Stable) {
  EXPECT_STREQ(ScoreAggregationToString(ScoreAggregation::kMean), "mean");
  EXPECT_STREQ(ScoreAggregationToString(ScoreAggregation::kMax), "max");
  EXPECT_STREQ(ScoreAggregationToString(ScoreAggregation::kEuclidean),
               "euclidean");
  EXPECT_STREQ(ScoreAggregationToString(ScoreAggregation::kWeighted),
               "weighted");
}

TEST(AggregateScoreTest, EuclideanIsQuadraticMean) {
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kEuclidean, 30.0, 30.0),
                   30.0);  // balanced: equals the common value
  EXPECT_NEAR(AggregateScore(ScoreAggregation::kEuclidean, 0.0, 40.0),
              40.0 / std::sqrt(2.0), 1e-12);
}

TEST(AggregateScoreTest, EuclideanSitsBetweenMeanAndMax) {
  // For unbalanced pairs: mean <= euclidean <= max.
  for (double il : {0.0, 10.0, 35.0}) {
    for (double dr : {40.0, 70.0}) {
      double mean = AggregateScore(ScoreAggregation::kMean, il, dr);
      double euclid = AggregateScore(ScoreAggregation::kEuclidean, il, dr);
      double max = AggregateScore(ScoreAggregation::kMax, il, dr);
      EXPECT_GE(euclid, mean - 1e-12);
      EXPECT_LE(euclid, max + 1e-12);
    }
  }
}

TEST(AggregateScoreTest, WeightedTiltsTheTradeoff) {
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kWeighted, 20, 40, 0.5),
                   30.0);  // w=0.5 degenerates to the mean
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kWeighted, 20, 40, 1.0),
                   20.0);  // all weight on IL
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kWeighted, 20, 40, 0.0),
                   40.0);  // all weight on DR
  EXPECT_DOUBLE_EQ(AggregateScore(ScoreAggregation::kWeighted, 20, 40, 0.25),
                   35.0);
}

TEST(FitnessEvaluatorTest, WeightedAggregationApplied) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  FitnessEvaluator::Options options;
  options.aggregation = ScoreAggregation::kWeighted;
  options.il_weight = 0.2;
  auto evaluator =
      std::move(FitnessEvaluator::Create(original, attrs, options)).ValueOrDie();
  Rng rng(5);
  Dataset masked =
      protection::Pram(0.6).Protect(original, attrs, &rng).ValueOrDie();
  FitnessBreakdown b = evaluator->Evaluate(masked);
  EXPECT_NEAR(b.score, 0.2 * b.il + 0.8 * b.dr, 1e-9);
}

TEST(FitnessEvaluatorTest, RejectsBadIlWeight) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  FitnessEvaluator::Options options;
  options.il_weight = 1.5;
  EXPECT_FALSE(FitnessEvaluator::Create(original, attrs, options).ok());
  options.il_weight = -0.1;
  EXPECT_FALSE(FitnessEvaluator::Create(original, attrs, options).ok());
}

TEST(FitnessEvaluatorTest, BreakdownConsistency) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  auto evaluator = std::move(FitnessEvaluator::Create(original, attrs)).ValueOrDie();

  Rng rng(5);
  Dataset masked =
      protection::Pram(0.6).Protect(original, attrs, &rng).ValueOrDie();
  FitnessBreakdown b = evaluator->Evaluate(masked);

  EXPECT_NEAR(b.il, (b.ctbil + b.dbil + b.ebil) / 3.0, 1e-9);
  EXPECT_NEAR(b.dr, (b.id + b.dbrl + b.prl + b.rsrl) / 4.0, 1e-9);
  EXPECT_NEAR(b.score, (b.il + b.dr) / 2.0, 1e-9);  // default: mean
  for (double v : {b.ctbil, b.dbil, b.ebil, b.id, b.dbrl, b.prl, b.rsrl}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 100.0);
  }
}

TEST(FitnessEvaluatorTest, MaxAggregationUsed) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  FitnessEvaluator::Options options;
  options.aggregation = ScoreAggregation::kMax;
  auto evaluator =
      std::move(FitnessEvaluator::Create(original, attrs, options)).ValueOrDie();
  Rng rng(5);
  Dataset masked =
      protection::Pram(0.6).Protect(original, attrs, &rng).ValueOrDie();
  FitnessBreakdown b = evaluator->Evaluate(masked);
  EXPECT_DOUBLE_EQ(b.score, std::max(b.il, b.dr));
}

TEST(FitnessEvaluatorTest, IdentityMaskingScoresAsExpected) {
  // Identity: IL = 0, DR high (ID is exactly 100). Mean score = DR/2.
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  auto evaluator = std::move(FitnessEvaluator::Create(original, attrs)).ValueOrDie();
  FitnessBreakdown b = evaluator->Evaluate(original.Clone());
  EXPECT_NEAR(b.il, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(b.id, 100.0);
  EXPECT_GT(b.dr, 50.0);
  EXPECT_NEAR(b.score, b.dr / 2.0, 1e-9);
}

TEST(FitnessEvaluatorTest, AblationDisablesMeasures) {
  // Drop each measure in turn: NaN lands in exactly its field, the others
  // keep their full-fitness values, and IL and DR become the means of the
  // remaining measures of their kind.
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  Rng rng(5);
  Dataset masked =
      protection::Pram(0.6).Protect(original, attrs, &rng).ValueOrDie();
  FitnessBreakdown all = std::move(FitnessEvaluator::Create(original, attrs))
                             .ValueOrDie()
                             ->Evaluate(masked);
  for (const FitnessMeasure& dropped : FitnessMeasures()) {
    FitnessEvaluator::Options options;
    options.*dropped.enabled = false;
    auto evaluator = std::move(FitnessEvaluator::Create(original, attrs,
                                                        options))
                         .ValueOrDie();
    FitnessBreakdown b = evaluator->Evaluate(masked);
    double il_sum = 0.0, dr_sum = 0.0;
    int il_count = 0, dr_count = 0;
    for (const FitnessMeasure& measure : FitnessMeasures()) {
      double value = b.*measure.field;
      if (&measure == &dropped) {
        EXPECT_TRUE(std::isnan(value)) << measure.name;
        continue;
      }
      EXPECT_EQ(value, all.*measure.field)
          << "without " << dropped.name << ": " << measure.name;
      auto instance = MeasureRegistry::Global().Create(measure.name);
      ASSERT_TRUE(instance.ok()) << measure.name;
      if (instance.ValueOrDie()->Kind() == MeasureKind::kInformationLoss) {
        il_sum += value;
        il_count += 1;
      } else {
        dr_sum += value;
        dr_count += 1;
      }
    }
    EXPECT_NEAR(b.il, il_sum / il_count, 1e-9) << "without " << dropped.name;
    EXPECT_NEAR(b.dr, dr_sum / dr_count, 1e-9) << "without " << dropped.name;
  }
}

TEST(FitnessEvaluatorTest, RejectsAllMeasuresDisabled) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  FitnessEvaluator::Options options;
  options.use_ctbil = options.use_dbil = options.use_ebil = false;
  EXPECT_FALSE(FitnessEvaluator::Create(original, attrs, options).ok());

  FitnessEvaluator::Options options2;
  options2.use_id = options2.use_dbrl = options2.use_prl = options2.use_rsrl =
      false;
  EXPECT_FALSE(FitnessEvaluator::Create(original, attrs, options2).ok());
}

TEST(FitnessEvaluatorTest, CountsEvaluations) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  auto evaluator = std::move(FitnessEvaluator::Create(original, attrs)).ValueOrDie();
  EXPECT_EQ(evaluator->num_evaluations(), 0);
  evaluator->Evaluate(original.Clone());
  evaluator->Evaluate(original.Clone());
  EXPECT_EQ(evaluator->num_evaluations(), 2);
}

TEST(FitnessEvaluatorTest, DeterministicAcrossCalls) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  auto evaluator = std::move(FitnessEvaluator::Create(original, attrs)).ValueOrDie();
  Rng rng(5);
  Dataset masked =
      protection::Pram(0.4).Protect(original, attrs, &rng).ValueOrDie();
  FitnessBreakdown a = evaluator->Evaluate(masked);
  FitnessBreakdown b = evaluator->Evaluate(masked);
  EXPECT_DOUBLE_EQ(a.score, b.score);
  EXPECT_DOUBLE_EQ(a.il, b.il);
  EXPECT_DOUBLE_EQ(a.dr, b.dr);
}

TEST(FitnessEvaluatorTest, ScoreHelperMatchesAggregation) {
  Dataset original = TestData();
  auto attrs = AllAttrs(original);
  FitnessEvaluator::Options options;
  options.aggregation = ScoreAggregation::kMax;
  auto evaluator =
      std::move(FitnessEvaluator::Create(original, attrs, options)).ValueOrDie();
  EXPECT_DOUBLE_EQ(evaluator->Score(10.0, 30.0), 30.0);
}

}  // namespace
}  // namespace metrics
}  // namespace evocat
