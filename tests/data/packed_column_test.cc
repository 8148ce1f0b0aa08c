// Property tests for the bit-packed columnar storage: exact round-trips at
// every bit width the dictionary cardinalities can produce, cross-word
// straddle handling at awkward row counts, single-cell writes, the bulk
// decode kernel, and copy-on-write semantics mirroring dataset_cow_test.cc.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/packed_column.h"

namespace evocat {
namespace {

std::vector<int32_t> RandomCodes(int64_t rows, int32_t cardinality,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes(static_cast<size_t>(rows));
  for (auto& code : codes) {
    code = static_cast<int32_t>(rng.UniformIndex(
        static_cast<size_t>(cardinality)));
  }
  return codes;
}

TEST(PackedColumnTest, BitWidthMatchesCardinality) {
  EXPECT_EQ(PackedColumn::BitWidthFor(2), 1);
  EXPECT_EQ(PackedColumn::BitWidthFor(3), 2);
  EXPECT_EQ(PackedColumn::BitWidthFor(4), 2);
  EXPECT_EQ(PackedColumn::BitWidthFor(5), 3);
  EXPECT_EQ(PackedColumn::BitWidthFor(16), 4);
  EXPECT_EQ(PackedColumn::BitWidthFor(17), 5);
  EXPECT_EQ(PackedColumn::BitWidthFor(65536), 16);
}

TEST(PackedColumnTest, RoundTripsEveryWidthUpTo16Bits) {
  // Widths 1..16 via cardinalities around every power of two (2^k - 1,
  // 2^k, 2^k + 1): each must round-trip exactly through Get, Unpack and
  // the running-cursor ForEachRange, including values straddling words.
  for (int k = 1; k <= 16; ++k) {
    for (int32_t card : {(1 << k) - 1, 1 << k, (1 << k) + 1}) {
      if (card < 2) continue;
      // 131 rows: not a multiple of 64, so the tail word is partial.
      auto codes = RandomCodes(131, card, 1000 + static_cast<uint64_t>(k));
      PackedColumn packed = PackedColumn::Pack(codes, card);
      EXPECT_EQ(packed.size(), 131);
      EXPECT_EQ(packed.bit_width(), PackedColumn::BitWidthFor(card));
      EXPECT_EQ(packed.Unpack(), codes);
      for (size_t i = 0; i < codes.size(); ++i) {
        ASSERT_EQ(packed.Get(static_cast<int64_t>(i)), codes[i])
            << "card " << card << " row " << i;
      }
      packed.ForEachRange(0, packed.size(), [&](int64_t i, int32_t code) {
        ASSERT_EQ(code, codes[static_cast<size_t>(i)]);
      });
    }
  }
}

TEST(PackedColumnTest, OddRowCountsKeepTailExact) {
  // Row counts around the word boundary (rows % 64 != 0 in particular):
  // the last value must decode exactly even when its bits end mid-word.
  for (int64_t rows : {1, 7, 63, 64, 65, 127, 128, 129, 1000}) {
    auto codes = RandomCodes(rows, 11, static_cast<uint64_t>(rows));
    PackedColumn packed = PackedColumn::Pack(codes, 11);
    EXPECT_EQ(packed.Unpack(), codes) << rows << " rows";
  }
}

TEST(PackedColumnTest, SetOverwritesAcrossWordBoundaries) {
  // Width-5 values at 131 rows put cells on every straddle alignment;
  // rewriting each cell twice (max code, then the original) must leave
  // every *other* cell untouched.
  auto codes = RandomCodes(131, 17, 7);
  PackedColumn packed = PackedColumn::Pack(codes, 17);
  for (int64_t i = 0; i < packed.size(); ++i) {
    int32_t old_code = packed.Get(i);
    packed.Set(i, 16);
    ASSERT_EQ(packed.Get(i), 16);
    packed.Set(i, old_code);
  }
  EXPECT_EQ(packed.Unpack(), codes);
}

TEST(PackedColumnTest, DecodeRangeMatchesScalarDecodeEveryWidth) {
  // The word-walk bulk decoder (and its SIMD byte-aligned fast paths at
  // widths 4/8/16) against the per-value scalar decode, over widths 1..16
  // with cardinalities 2^k - 1, 2^k, 2^k + 1. 517 rows: word-straddling
  // codes at every alignment for the non-power-of-two widths plus a partial
  // tail word.
  for (int k = 1; k <= 16; ++k) {
    for (int32_t card : {(1 << k) - 1, 1 << k, (1 << k) + 1}) {
      if (card < 2) continue;
      auto codes = RandomCodes(517, card, 4200 + static_cast<uint64_t>(k));
      PackedColumn packed = PackedColumn::Pack(codes, card);
      std::vector<int32_t> decoded(codes.size(), -1);
      packed.DecodeRange(0, packed.size(), decoded.data());
      for (size_t i = 0; i < codes.size(); ++i) {
        ASSERT_EQ(decoded[i], packed.Get(static_cast<int64_t>(i)))
            << "card " << card << " row " << i;
      }
      ASSERT_EQ(decoded, codes) << "card " << card;
    }
  }
}

TEST(PackedColumnTest, DecodeRangeHandlesMidWordAndEmptyRanges) {
  // Sub-ranges that start and end mid-word (including straddle-adjacent
  // offsets), single-value ranges and empty ranges, across straddling
  // (width 5) and byte-aligned SIMD (widths 4, 8, 16) layouts.
  for (int32_t card : {17, 16, 251, 40000}) {
    auto codes = RandomCodes(300, card, 77 + static_cast<uint64_t>(card));
    PackedColumn packed = PackedColumn::Pack(codes, card);
    const std::pair<int64_t, int64_t> ranges[] = {
        {0, 0},     {150, 150}, {0, 1},    {299, 300}, {1, 300},
        {63, 65},   {5, 133},   {12, 13},  {64, 128},  {31, 257}};
    for (const auto& [begin, end] : ranges) {
      std::vector<int32_t> decoded(static_cast<size_t>(end - begin) + 1,
                                   -7);
      decoded.back() = -7;  // canary past the range
      packed.DecodeRange(begin, end, decoded.data());
      for (int64_t i = begin; i < end; ++i) {
        ASSERT_EQ(decoded[static_cast<size_t>(i - begin)],
                  codes[static_cast<size_t>(i)])
            << "card " << card << " range [" << begin << ", " << end << ")";
      }
      EXPECT_EQ(decoded.back(), -7) << "decode wrote past the range";
    }
  }
}

TEST(PackedColumnTest, CopySharesStorageUntilFirstWrite) {
  // Mirrors dataset_cow_test.cc: a copy aliases the word buffer; the first
  // Set detaches a private copy and the sibling keeps its codes.
  auto codes = RandomCodes(100, 6, 33);
  PackedColumn a = PackedColumn::Pack(codes, 6);
  PackedColumn b = a;
  EXPECT_TRUE(a.SharesStorage(b));

  b.Set(50, 5);
  EXPECT_FALSE(a.SharesStorage(b));
  EXPECT_EQ(a.Get(50), codes[50]);
  EXPECT_EQ(b.Get(50), 5);

  // Writing the already-detached column again must not re-share.
  b.Set(51, 0);
  EXPECT_EQ(a.Get(51), codes[51]);
}

}  // namespace
}  // namespace evocat
