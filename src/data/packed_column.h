/// \file packed_column.h
/// \brief Bit-packed categorical code columns (the million-row data plane).
///
/// A `PackedColumn` stores one code per record in exactly
/// `ceil(log2(cardinality))` bits, tightly packed into 64-bit words (values
/// may straddle word boundaries). A typical protected attribute has 3-25
/// categories, so the packed layout is 6-10x denser than the row-oriented
/// `Dataset::Column` (`int32_t` per cell) — at 10^6 rows the working set of
/// a full-table rebuild drops from megabytes to hundreds of kilobytes per
/// attribute, which is what keeps contingency counting and joint-count
/// rebuilds memory-bandwidth-friendly at scale.
///
/// Like `Dataset` columns, packed columns are copy-on-write: copying a
/// column (or a `PackedTable`) shares the word buffer, and the first `Set`
/// detaches a private copy. Reads decode with a running bit cursor
/// (`ForEachRange`) so sequential scans touch each word once.
///
/// Bulk reads go through the word-parallel kernels (`DecodeRange`,
/// `AccumulateCounts`): each 64-bit word is loaded once and every code it
/// holds is extracted by shift+mask before the next word is touched. On x86
/// an SSE2/AVX2 fast path (compile-time detected, disable with
/// `-DEVOCAT_SIMD=0`) widens the byte-aligned widths; the portable
/// `uint64_t` core covers everything else and is bit-identical to the
/// per-value decode by construction (integer extraction, no reordering of
/// observable effects).

#ifndef EVOCAT_DATA_PACKED_COLUMN_H_
#define EVOCAT_DATA_PACKED_COLUMN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"

namespace evocat {

/// \brief One attribute's codes, bit-packed at the dictionary's width.
class PackedColumn {
 public:
  PackedColumn() = default;

  /// \brief Bits needed to store codes 0..cardinality-1 (at least 1).
  static int BitWidthFor(int32_t cardinality);

  /// \brief Packs a plain code column; `cardinality` fixes the bit width.
  static PackedColumn Pack(const std::vector<int32_t>& codes,
                           int32_t cardinality);

  int64_t size() const { return num_values_; }
  int bit_width() const { return bits_; }

  /// \brief Code at `i`; bounds unchecked on release hot paths.
  int32_t Get(int64_t i) const {
    uint64_t bit = static_cast<uint64_t>(i) * static_cast<uint64_t>(bits_);
    size_t word = static_cast<size_t>(bit >> 6);
    int offset = static_cast<int>(bit & 63u);
    const uint64_t* words = words_->data();
    uint64_t value = words[word] >> offset;
    if (offset + bits_ > 64) value |= words[word + 1] << (64 - offset);
    return static_cast<int32_t>(value & mask_);
  }

  /// \brief Overwrites the code at `i`, detaching from COW siblings first.
  void Set(int64_t i, int32_t code);

  /// \brief Decodes the whole column back to plain codes.
  std::vector<int32_t> Unpack() const;

  /// \brief Calls `fn(i, code)` for every i in [begin, end) with a running
  /// bit cursor (one word read per value, no per-value multiply).
  template <class Fn>
  void ForEachRange(int64_t begin, int64_t end, Fn&& fn) const {
    const uint64_t* words = words_->data();
    uint64_t bit = static_cast<uint64_t>(begin) * static_cast<uint64_t>(bits_);
    for (int64_t i = begin; i < end; ++i, bit += static_cast<uint64_t>(bits_)) {
      size_t word = static_cast<size_t>(bit >> 6);
      int offset = static_cast<int>(bit & 63u);
      uint64_t value = words[word] >> offset;
      if (offset + bits_ > 64) value |= words[word + 1] << (64 - offset);
      fn(i, static_cast<int32_t>(value & mask_));
    }
  }

  /// \brief Decodes the codes of [begin, end) into `out` (length
  /// `end - begin`) by walking whole 64-bit words: one load per word, all
  /// resident codes extracted by shift+mask, straddles patched with a single
  /// next-word load. Byte-aligned widths (4/8/16 bits) take the SIMD fast
  /// path when `EVOCAT_SIMD` is on. Exactly equivalent to `Get` per index.
  void DecodeRange(int64_t begin, int64_t end, int32_t* out) const;

  /// \brief Adds this column's per-category counts over [begin, end) into
  /// `counts` (sized to the cardinality) — the word-parallel counting kernel
  /// behind the sharded contingency builds.
  void AccumulateCounts(int64_t begin, int64_t end, int64_t* counts) const;

  /// \brief True when this build's bulk kernels use the vectorized
  /// (SSE2/AVX2) byte-aligned fast path; false on the portable core.
  static bool SimdEnabled();

  /// \brief True when this column shares its word buffer with `other`
  /// (COW introspection, mirrors `Dataset::SharesColumnStorage`).
  bool SharesStorage(const PackedColumn& other) const {
    return words_ == other.words_;
  }

 private:
  /// \brief Gives this column a private word buffer if shared.
  void Detach() {
    if (words_.use_count() > 1) {
      words_ = std::make_shared<std::vector<uint64_t>>(*words_);
    }
  }

  std::shared_ptr<std::vector<uint64_t>> words_;
  int64_t num_values_ = 0;
  int bits_ = 0;
  uint64_t mask_ = 0;
};

/// \brief A set of packed columns mirroring chosen attributes of a dataset,
/// maintainable cell by cell through `Set`.
class PackedTable {
 public:
  PackedTable() = default;

  /// \brief Packs `attrs`' columns of `dataset` (width from each
  /// attribute's dictionary cardinality).
  static PackedTable FromDataset(const Dataset& dataset,
                                 const std::vector<int>& attrs);

  size_t num_columns() const { return columns_.size(); }
  const std::vector<int>& attrs() const { return attrs_; }
  const PackedColumn& column(size_t pos) const { return columns_[pos]; }

  int32_t Code(int64_t row, size_t pos) const {
    return columns_[pos].Get(row);
  }
  void Set(int64_t row, size_t pos, int32_t code) {
    columns_[pos].Set(row, code);
  }

 private:
  std::vector<int> attrs_;
  std::vector<PackedColumn> columns_;
};

}  // namespace evocat

#endif  // EVOCAT_DATA_PACKED_COLUMN_H_
