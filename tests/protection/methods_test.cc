// Per-method behavioural tests for the six masking methods, plus a
// parameterized property suite (domain closure, determinism, shape) that
// sweeps every method the population builder can instantiate.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "data/stats.h"
#include "datagen/generator.h"
#include "protection/coding.h"
#include "protection/global_recoding.h"
#include "protection/microaggregation.h"
#include "protection/population_builder.h"
#include "protection/pram.h"
#include "protection/rank_swapping.h"

namespace evocat {
namespace protection {
namespace {

using evocat::testing::AllAttrs;
using evocat::testing::BuildDataset;
using evocat::testing::CountDiffs;
using evocat::testing::TestAttr;

Dataset PaperLikeDataset() {
  auto profile = datagen::UniformTestProfile("t", 200, {12, 7, 5});
  profile.attributes[0].kind = AttrKind::kOrdinal;
  profile.attributes[0].zipf_s = 0.7;
  profile.attributes[1].zipf_s = 0.5;
  return datagen::Generate(profile, 77).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Microaggregation

TEST(MicroaggregationTest, UnivariateGroupsShareValue) {
  Dataset original = PaperLikeDataset();
  Microaggregation method(5, MicroOrdering::kUnivariate);
  Rng rng(1);
  Dataset masked = method.Protect(original, {0}, &rng).ValueOrDie();
  // Every masked category must cover at least k records (groups of >= 5 all
  // collapse to one category; distinct groups may share a centroid).
  auto counts = CategoryCounts(masked, 0);
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) {
      EXPECT_GE(counts[c], 5) << "category " << c;
    }
  }
}

TEST(MicroaggregationTest, LargerKLosesMoreDetail) {
  Dataset original = PaperLikeDataset();
  Rng rng1(1), rng2(1);
  Dataset small_k = Microaggregation(3, MicroOrdering::kSortByAttr0)
                        .Protect(original, AllAttrs(original), &rng1)
                        .ValueOrDie();
  Dataset large_k = Microaggregation(14, MicroOrdering::kSortByAttr0)
                        .Protect(original, AllAttrs(original), &rng2)
                        .ValueOrDie();
  EXPECT_LT(CountDiffs(original, small_k, AllAttrs(original)),
            CountDiffs(original, large_k, AllAttrs(original)));
}

TEST(MicroaggregationTest, OrdinalCentroidIsMedian) {
  // One ordinal attribute, 6 records in one group of k=6: median of codes.
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 10}},
                                  {{0}, {1}, {2}, {7}, {8}, {9}});
  Microaggregation method(6, MicroOrdering::kUnivariate);
  Rng rng(1);
  Dataset masked = method.Protect(original, {0}, &rng).ValueOrDie();
  for (int64_t r = 0; r < masked.num_rows(); ++r) {
    EXPECT_EQ(masked.Code(r, 0), 7);  // upper median of {0,1,2,7,8,9}
  }
}

TEST(MicroaggregationTest, NominalCentroidIsMode) {
  Dataset original = BuildDataset({{"A", AttrKind::kNominal, 5}},
                                  {{3}, {3}, {3}, {1}, {0}, {2}});
  Microaggregation method(6, MicroOrdering::kUnivariate);
  Rng rng(1);
  Dataset masked = method.Protect(original, {0}, &rng).ValueOrDie();
  for (int64_t r = 0; r < masked.num_rows(); ++r) {
    EXPECT_EQ(masked.Code(r, 0), 3);  // plurality value
  }
}

TEST(MicroaggregationTest, RemainderJoinsLastGroup) {
  // 7 records, k=3 -> groups {3, 4}: no masked category count below 3.
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 8}},
                                  {{0}, {1}, {2}, {3}, {4}, {5}, {6}});
  Microaggregation method(3, MicroOrdering::kUnivariate);
  Rng rng(1);
  Dataset masked = method.Protect(original, {0}, &rng).ValueOrDie();
  auto counts = CategoryCounts(masked, 0);
  int64_t covered = 0;
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) {
      EXPECT_GE(counts[c], 3);
      covered += counts[c];
    }
  }
  EXPECT_EQ(covered, 7);
}

TEST(MicroaggregationTest, RejectsBadK) {
  Dataset original = PaperLikeDataset();
  Rng rng(1);
  EXPECT_FALSE(Microaggregation(1, MicroOrdering::kUnivariate)
                   .Protect(original, {0}, &rng)
                   .ok());
}

TEST(MicroaggregationTest, MultivariateOrderingsShareGrouping) {
  // Multivariate variants write the same grouping to all attributes: the
  // masked joint table can have at most ceil(n/k) distinct combinations.
  Dataset original = PaperLikeDataset();
  Rng rng(1);
  Dataset masked = Microaggregation(10, MicroOrdering::kSortBySum)
                       .Protect(original, {0, 1, 2}, &rng)
                       .ValueOrDie();
  auto table = ContingencyTable::Build(masked, {0, 1, 2}).ValueOrDie();
  EXPECT_LE(table.num_cells(), static_cast<size_t>(200 / 10));
}

// ---------------------------------------------------------------------------
// Bottom / top coding

TEST(BottomCodingTest, CollapsesLowCategories) {
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 10}},
                                  {{0}, {1}, {2}, {5}, {9}});
  BottomCoding method(0.3);  // threshold = round(0.3*9) = 3
  Rng rng(1);
  Dataset masked = method.Protect(original, {0}, &rng).ValueOrDie();
  EXPECT_EQ(masked.Code(0, 0), 3);
  EXPECT_EQ(masked.Code(1, 0), 3);
  EXPECT_EQ(masked.Code(2, 0), 3);
  EXPECT_EQ(masked.Code(3, 0), 5);  // above threshold untouched
  EXPECT_EQ(masked.Code(4, 0), 9);
}

TEST(TopCodingTest, CollapsesHighCategories) {
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 10}},
                                  {{0}, {5}, {7}, {8}, {9}});
  TopCoding method(0.3);  // threshold = 9 - 3 = 6
  Rng rng(1);
  Dataset masked = method.Protect(original, {0}, &rng).ValueOrDie();
  EXPECT_EQ(masked.Code(0, 0), 0);
  EXPECT_EQ(masked.Code(1, 0), 5);
  EXPECT_EQ(masked.Code(2, 0), 6);
  EXPECT_EQ(masked.Code(3, 0), 6);
  EXPECT_EQ(masked.Code(4, 0), 6);
}

TEST(CodingTest, ThresholdsStayInsideDomain) {
  for (double f : {0.05, 0.2, 0.5, 0.9}) {
    for (int card : {2, 3, 8, 25}) {
      int32_t bottom = BottomCoding(f).ThresholdCode(card);
      EXPECT_GE(bottom, 1);
      EXPECT_LE(bottom, card - 1);
      int32_t top = TopCoding(f).ThresholdCode(card);
      EXPECT_GE(top, 0);
      EXPECT_LE(top, card - 2);
    }
  }
}

TEST(CodingTest, LargerFractionCollapsesMore) {
  Dataset original = PaperLikeDataset();
  Rng rng1(1), rng2(1);
  Dataset mild =
      BottomCoding(0.1).Protect(original, {0}, &rng1).ValueOrDie();
  Dataset harsh =
      BottomCoding(0.6).Protect(original, {0}, &rng2).ValueOrDie();
  EXPECT_LE(CountDiffs(original, mild, {0}), CountDiffs(original, harsh, {0}));
}

TEST(CodingTest, RejectsBadFraction) {
  Dataset original = PaperLikeDataset();
  Rng rng(1);
  EXPECT_FALSE(BottomCoding(0.0).Protect(original, {0}, &rng).ok());
  EXPECT_FALSE(TopCoding(1.0).Protect(original, {0}, &rng).ok());
}

// ---------------------------------------------------------------------------
// Global recoding

TEST(GlobalRecodingTest, MapsToGroupRepresentative) {
  GlobalRecoding method(3);
  // card 9, groups {0,1,2}->1, {3,4,5}->4, {6,7,8}->7.
  EXPECT_EQ(method.Representative(0, 9), 1);
  EXPECT_EQ(method.Representative(2, 9), 1);
  EXPECT_EQ(method.Representative(4, 9), 4);
  EXPECT_EQ(method.Representative(8, 9), 7);
}

TEST(GlobalRecodingTest, SingletonTailMergesBackwards) {
  GlobalRecoding method(2);
  // card 5: groups {0,1}, {2,3}, remainder {4} merges into {2,3,4}.
  EXPECT_EQ(method.Representative(4, 5), 3);
  EXPECT_EQ(method.Representative(3, 5), 2);
}

TEST(GlobalRecodingTest, IsIdempotentOnRepresentatives) {
  GlobalRecoding method(3);
  for (int card : {5, 9, 14, 25}) {
    for (int32_t code = 0; code < card; ++code) {
      int32_t rep = method.Representative(code, card);
      EXPECT_EQ(method.Representative(rep, card), rep)
          << "card=" << card << " code=" << code;
      EXPECT_GE(rep, 0);
      EXPECT_LT(rep, card);
    }
  }
}

TEST(GlobalRecodingTest, RecodingIsGlobal) {
  // All records with the same original category get the same masked category.
  Dataset original = PaperLikeDataset();
  Rng rng(1);
  Dataset masked =
      GlobalRecoding(4).Protect(original, {0, 1, 2}, &rng).ValueOrDie();
  for (int attr : {0, 1, 2}) {
    std::vector<int32_t> mapping(
        static_cast<size_t>(original.schema().attribute(attr).cardinality()), -1);
    for (int64_t r = 0; r < original.num_rows(); ++r) {
      auto orig = static_cast<size_t>(original.Code(r, attr));
      if (mapping[orig] < 0) {
        mapping[orig] = masked.Code(r, attr);
      } else {
        EXPECT_EQ(mapping[orig], masked.Code(r, attr));
      }
    }
  }
}

TEST(GlobalRecodingTest, RejectsBadGroupSize) {
  Dataset original = PaperLikeDataset();
  Rng rng(1);
  EXPECT_FALSE(GlobalRecoding(1).Protect(original, {0}, &rng).ok());
}

// ---------------------------------------------------------------------------
// Rank swapping

TEST(RankSwappingTest, PreservesMarginalExactly) {
  Dataset original = PaperLikeDataset();
  Rng rng(3);
  Dataset masked =
      RankSwapping(10).Protect(original, {0, 1, 2}, &rng).ValueOrDie();
  for (int attr : {0, 1, 2}) {
    EXPECT_EQ(CategoryCounts(original, attr), CategoryCounts(masked, attr))
        << "attr " << attr;
  }
}

TEST(RankSwappingTest, ChangesRecords) {
  Dataset original = PaperLikeDataset();
  Rng rng(3);
  Dataset masked =
      RankSwapping(10).Protect(original, {0, 1, 2}, &rng).ValueOrDie();
  EXPECT_GT(CountDiffs(original, masked, {0, 1, 2}), 0);
}

TEST(RankSwappingTest, WindowBoundsRankDisplacement) {
  // With p% window, a swapped value's position in the sorted order moves at
  // most round(p/100 * n); in category terms the masked value's midrank must
  // stay within the window of the original's (tie spans widen this by the
  // category run length, so test with distinct values).
  std::vector<std::vector<int32_t>> rows;
  for (int32_t i = 0; i < 100; ++i) rows.push_back({i});
  Dataset original = BuildDataset({{"A", AttrKind::kOrdinal, 100}}, rows);
  double p = 5.0;
  Rng rng(11);
  Dataset masked = RankSwapping(p).Protect(original, {0}, &rng).ValueOrDie();
  for (int64_t r = 0; r < original.num_rows(); ++r) {
    // Distinct values: code == rank.
    EXPECT_LE(std::abs(original.Code(r, 0) - masked.Code(r, 0)), 5)
        << "record " << r;
  }
}

TEST(RankSwappingTest, LargerWindowMoreDistortion) {
  Dataset original = PaperLikeDataset();
  Rng rng1(3), rng2(3);
  Dataset mild = RankSwapping(2).Protect(original, {0}, &rng1).ValueOrDie();
  Dataset harsh = RankSwapping(22).Protect(original, {0}, &rng2).ValueOrDie();
  // Compare total ordinal displacement rather than raw diff counts.
  auto displacement = [&](const Dataset& masked) {
    int64_t total = 0;
    for (int64_t r = 0; r < original.num_rows(); ++r) {
      total += std::abs(original.Code(r, 0) - masked.Code(r, 0));
    }
    return total;
  };
  EXPECT_LT(displacement(mild), displacement(harsh));
}

/// The original O(n·window) partner selection: sort by (code, random
/// tie-break), then for each unswapped record materialize the unswapped
/// positions in (i, i+window] and draw one uniformly. The production path
/// replaces the scan with a Fenwick order-statistics set; it must consume
/// the identical RNG stream and pick the identical partners.
Dataset NaiveRankSwap(const Dataset& original, const std::vector<int>& attrs,
                      double p_percent, Rng* rng) {
  Dataset masked = original.Clone();
  int64_t n = original.num_rows();
  auto window = static_cast<int64_t>(
      std::llround(p_percent / 100.0 * static_cast<double>(n)));
  window = std::max<int64_t>(1, window);
  for (int attr : attrs) {
    std::vector<int64_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::vector<uint64_t> tiebreak(static_cast<size_t>(n));
    for (auto& t : tiebreak) t = rng->NextU64();
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      int32_t ca = original.Code(a, attr);
      int32_t cb = original.Code(b, attr);
      if (ca != cb) return ca < cb;
      return tiebreak[static_cast<size_t>(a)] <
             tiebreak[static_cast<size_t>(b)];
    });
    std::vector<bool> swapped(static_cast<size_t>(n), false);
    for (int64_t i = 0; i < n; ++i) {
      if (swapped[static_cast<size_t>(i)]) continue;
      int64_t hi = std::min(n - 1, i + window);
      std::vector<int64_t> candidates;
      for (int64_t j = i + 1; j <= hi; ++j) {
        if (!swapped[static_cast<size_t>(j)]) candidates.push_back(j);
      }
      if (candidates.empty()) {
        swapped[static_cast<size_t>(i)] = true;
        continue;
      }
      int64_t j = candidates[rng->UniformIndex(candidates.size())];
      int64_t rec_i = order[static_cast<size_t>(i)];
      int64_t rec_j = order[static_cast<size_t>(j)];
      int32_t vi = masked.Code(rec_i, attr);
      masked.SetCode(rec_i, attr, masked.Code(rec_j, attr));
      masked.SetCode(rec_j, attr, vi);
      swapped[static_cast<size_t>(i)] = true;
      swapped[static_cast<size_t>(j)] = true;
    }
  }
  return masked;
}

TEST(RankSwappingTest, FenwickSelectionMatchesNaiveScanBitExactly) {
  Dataset original = PaperLikeDataset();
  for (double p : {0.4, 1.0, 7.0, 33.0, 90.0, 99.9}) {
    Rng fast_rng(17), naive_rng(17);
    Dataset fast =
        RankSwapping(p).Protect(original, {0, 1, 2}, &fast_rng).ValueOrDie();
    Dataset naive = NaiveRankSwap(original, {0, 1, 2}, p, &naive_rng);
    ASSERT_TRUE(fast.SameCodes(naive)) << "p=" << p;
    // Same number of RNG draws too: a divergent draw count would silently
    // shift every downstream protection in a grid build.
    EXPECT_EQ(fast_rng.NextU64(), naive_rng.NextU64()) << "p=" << p;
  }
}

TEST(RankSwappingTest, RejectsBadP) {
  Dataset original = PaperLikeDataset();
  Rng rng(1);
  EXPECT_FALSE(RankSwapping(0).Protect(original, {0}, &rng).ok());
  EXPECT_FALSE(RankSwapping(100).Protect(original, {0}, &rng).ok());
}

// ---------------------------------------------------------------------------
// PRAM

TEST(PramTest, RetainOneIsIdentity) {
  Dataset original = PaperLikeDataset();
  Rng rng(5);
  Dataset masked = Pram(1.0).Protect(original, {0, 1, 2}, &rng).ValueOrDie();
  EXPECT_TRUE(masked.SameCodes(original));
}

TEST(PramTest, LowerRetentionMoreChanges) {
  Dataset original = PaperLikeDataset();
  Rng rng1(5), rng2(5);
  Dataset mild = Pram(0.9).Protect(original, {0, 1, 2}, &rng1).ValueOrDie();
  Dataset harsh = Pram(0.1).Protect(original, {0, 1, 2}, &rng2).ValueOrDie();
  EXPECT_LT(CountDiffs(original, mild, {0, 1, 2}),
            CountDiffs(original, harsh, {0, 1, 2}));
}

TEST(PramTest, ChangeRateTracksRetention) {
  Dataset original = PaperLikeDataset();
  Rng rng(5);
  double retain = 0.5;
  Dataset masked =
      Pram(retain).Protect(original, {0, 1, 2}, &rng).ValueOrDie();
  double changed =
      static_cast<double>(CountDiffs(original, masked, {0, 1, 2})) /
      static_cast<double>(3 * original.num_rows());
  // Expected change rate: (1-retain) * P(resample differs), which is below
  // 1-retain but well above half of it for these marginals.
  EXPECT_LT(changed, 1.0 - retain + 0.05);
  EXPECT_GT(changed, (1.0 - retain) * 0.4);
}

TEST(PramTest, MarginalRoughlyPreserved) {
  // PRAM towards the empirical marginal keeps frequencies stable in
  // expectation even at low retention.
  auto profile = datagen::UniformTestProfile("p", 3000, {6});
  profile.attributes[0].zipf_s = 1.0;
  Dataset original = datagen::Generate(profile, 9).ValueOrDie();
  Rng rng(5);
  Dataset masked = Pram(0.2).Protect(original, {0}, &rng).ValueOrDie();
  auto orig_freq = CategoryFrequencies(original, 0);
  auto mask_freq = CategoryFrequencies(masked, 0);
  for (size_t c = 0; c < orig_freq.size(); ++c) {
    EXPECT_NEAR(orig_freq[c], mask_freq[c], 0.03) << "category " << c;
  }
}

TEST(PramTest, RejectsBadRetention) {
  Dataset original = PaperLikeDataset();
  Rng rng(1);
  EXPECT_FALSE(Pram(-0.1).Protect(original, {0}, &rng).ok());
  EXPECT_FALSE(Pram(1.1).Protect(original, {0}, &rng).ok());
}

// ---------------------------------------------------------------------------
// Shared-method validation + property sweep over every instantiable method

TEST(MethodValidationTest, CommonErrors) {
  Dataset original = PaperLikeDataset();
  Rng rng(1);
  Pram method(0.5);
  EXPECT_FALSE(method.Protect(original, {}, &rng).ok());          // no attrs
  EXPECT_FALSE(method.Protect(original, {99}, &rng).ok());        // bad index
  EXPECT_FALSE(method.Protect(original, {0, 0}, &rng).ok());      // duplicate
  Dataset empty = BuildDataset({{"A", AttrKind::kNominal, 2}}, {});
  EXPECT_FALSE(method.Protect(empty, {0}, &rng).ok());            // no rows
}

class AllMethodsPropertyTest : public ::testing::TestWithParam<size_t> {
 protected:
  static const std::vector<std::unique_ptr<ProtectionMethod>>& Methods() {
    static auto* methods = new std::vector<std::unique_ptr<ProtectionMethod>>(
        InstantiateMethods(HousingPopulationSpec()));
    return *methods;
  }
};

TEST_P(AllMethodsPropertyTest, DomainClosureDeterminismAndShape) {
  const auto& method = Methods()[GetParam()];
  Dataset original = PaperLikeDataset();
  std::vector<int> attrs = {0, 1, 2};

  Rng rng_a(42);
  Dataset masked = method->Protect(original, attrs, &rng_a).ValueOrDie();

  // Shape: same rows, shared schema.
  EXPECT_EQ(masked.num_rows(), original.num_rows());
  EXPECT_EQ(masked.schema_ptr(), original.schema_ptr());

  // Domain closure: every masked value is a valid original category.
  EXPECT_TRUE(masked.Validate().ok()) << method->Label();

  // Unprotected attributes are untouched (none here beyond attrs, but check
  // codes outside attrs anyway when they exist).
  for (int a = 3; a < original.num_attributes(); ++a) {
    for (int64_t r = 0; r < original.num_rows(); ++r) {
      EXPECT_EQ(masked.Code(r, a), original.Code(r, a));
    }
  }

  // Determinism: same seed, same masked file.
  Rng rng_b(42);
  Dataset again = method->Protect(original, attrs, &rng_b).ValueOrDie();
  EXPECT_TRUE(masked.SameCodes(again)) << method->Label();

  // The original is never modified.
  Dataset pristine = PaperLikeDataset();
  EXPECT_TRUE(original.SameCodes(pristine));
}

INSTANTIATE_TEST_SUITE_P(
    HousingGrid, AllMethodsPropertyTest,
    ::testing::Range<size_t>(0, 110));  // 110 methods in the Housing spec

// ---------------------------------------------------------------------------
// Population builder

TEST(PopulationBuilderTest, PaperCountsExact) {
  EXPECT_EQ(HousingPopulationSpec().TotalCount(), 110);
  EXPECT_EQ(GermanFlarePopulationSpec().TotalCount(), 104);
  EXPECT_EQ(AdultPopulationSpec().TotalCount(), 86);
}

TEST(PopulationBuilderTest, BuildsEveryProtectionWithLabel) {
  Dataset original = PaperLikeDataset();
  auto files =
      BuildProtections(original, {0, 1, 2}, AdultPopulationSpec(), 123)
          .ValueOrDie();
  ASSERT_EQ(files.size(), 86u);
  std::set<std::string> labels;
  for (const auto& file : files) {
    EXPECT_TRUE(file.data.Validate().ok()) << file.method_label;
    labels.insert(file.method_label);
  }
  EXPECT_EQ(labels.size(), 86u);  // all labels unique
}

TEST(PopulationBuilderTest, DeterministicGivenSeed) {
  Dataset original = PaperLikeDataset();
  auto a = BuildProtections(original, {0, 1, 2}, GermanFlarePopulationSpec(), 9)
               .ValueOrDie();
  auto b = BuildProtections(original, {0, 1, 2}, GermanFlarePopulationSpec(), 9)
               .ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].data.SameCodes(b[i].data)) << a[i].method_label;
  }
}

TEST(PopulationBuilderTest, MethodMixMatchesSpec) {
  Dataset original = PaperLikeDataset();
  auto files =
      BuildProtections(original, {0, 1, 2}, HousingPopulationSpec(), 1)
          .ValueOrDie();
  int micro = 0, bottom = 0, top = 0, recode = 0, swap = 0, pram = 0;
  for (const auto& file : files) {
    if (file.method_label.rfind("microaggregation", 0) == 0) ++micro;
    if (file.method_label.rfind("bottomcoding", 0) == 0) ++bottom;
    if (file.method_label.rfind("topcoding", 0) == 0) ++top;
    if (file.method_label.rfind("globalrecoding", 0) == 0) ++recode;
    if (file.method_label.rfind("rankswapping", 0) == 0) ++swap;
    if (file.method_label.rfind("pram", 0) == 0) ++pram;
  }
  EXPECT_EQ(micro, 72);
  EXPECT_EQ(bottom, 6);
  EXPECT_EQ(top, 6);
  EXPECT_EQ(recode, 6);
  EXPECT_EQ(swap, 11);
  EXPECT_EQ(pram, 9);
}

}  // namespace
}  // namespace protection
}  // namespace evocat
