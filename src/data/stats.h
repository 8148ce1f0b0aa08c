/// \file stats.h
/// \brief Frequency, contingency-table and rank statistics over datasets.
///
/// These are the building blocks of the information-loss measures (CTBIL,
/// EBIL) and the rank-based disclosure-risk measures (ID, RSRL).

#ifndef EVOCAT_DATA_STATS_H_
#define EVOCAT_DATA_STATS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace evocat {

/// \brief Per-category record counts for one attribute (indexed by code).
std::vector<int64_t> CategoryCounts(const Dataset& dataset, int attr);

/// \brief Per-category relative frequencies (sums to 1 for non-empty data).
std::vector<double> CategoryFrequencies(const Dataset& dataset, int attr);

/// \brief Joint frequency table over up to 4 attributes.
///
/// Cells are keyed by the packed category codes (16 bits per attribute).
/// Only non-empty cells are stored, so high-dimensional sparse tables stay
/// cheap. `L1Distance` iterates the union of cells of two tables — the core
/// operation of the contingency-table-based information loss.
class ContingencyTable {
 public:
  /// \brief Builds the joint table of `dataset` over `attrs` (1..4 indices).
  static Result<ContingencyTable> Build(const Dataset& dataset,
                                        const std::vector<int>& attrs);

  /// \brief Count for the cell addressed by one code per table attribute.
  int64_t Count(const std::vector<int32_t>& codes) const;

  /// \brief Number of non-empty cells.
  size_t num_cells() const { return cells_.size(); }

  /// \brief Total count (number of records).
  int64_t total() const { return total_; }

  /// \brief Attribute indices this table was built over.
  const std::vector<int>& attrs() const { return attrs_; }

  /// \brief Sum over the union of cells of |count_this - count_other|.
  int64_t L1Distance(const ContingencyTable& other) const;

  /// \brief Access to raw cells (packed key -> count) for iteration.
  const std::unordered_map<uint64_t, int64_t>& cells() const { return cells_; }

  /// \brief Packs one code per attribute into a cell key.
  static uint64_t PackKey(const std::vector<int32_t>& codes);

  /// \brief Adds each row's packed-key count over [begin, end) into `cells`
  /// — the per-shard kernel of the row-sharded contingency builds. Shard
  /// partials are integer counts, so merging them in any order reproduces
  /// the serial `Build` exactly.
  static void AccumulateRange(const Dataset& dataset,
                              const std::vector<int>& attrs, int64_t begin,
                              int64_t end,
                              std::unordered_map<uint64_t, int64_t>* cells);

 private:
  std::vector<int> attrs_;
  std::unordered_map<uint64_t, int64_t> cells_;
  int64_t total_ = 0;
};

/// \brief Mid-rank of each category within its column (indexed by code).
///
/// Records are conceptually sorted by code; all records sharing a category
/// receive the category's average 1-based position. Categories with zero
/// records get the boundary position. This is the tie-aware rank used by
/// interval disclosure and the rank-swapping attack.
std::vector<double> CategoryMidranks(const Dataset& dataset, int attr);

/// \brief Mid-ranks straight from per-category counts (the kernel behind
/// `CategoryMidranks`, exposed so incremental masked-side states can rebuild
/// ranks bit-identically from maintained counts).
std::vector<double> MidranksFromCounts(const std::vector<int64_t>& counts);

/// \brief All subsets of {0..n-1} with exactly `k` elements (lexicographic).
std::vector<std::vector<int>> SubsetsOfSize(int n, int k);

}  // namespace evocat

#endif  // EVOCAT_DATA_STATS_H_
