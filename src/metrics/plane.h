/// \file plane.h
/// \brief The data plane: shard geometry and pattern clustering.
///
/// Two mechanisms make the measures production-scale without changing a
/// single score bit:
///
///  - **Sharding** splits row ranges contiguously across the
///    `TaskScheduler` so state (re)builds within *one* individual
///    parallelize. Every shard produces integer partials (counts, joint
///    tables, insertion-ordered pattern tables) merged serially in shard
///    index order, so the merged result is bit-identical to a serial scan
///    for *any* shard count — the invariant the shard-determinism tests
///    pin down.
///  - **Pattern clustering** groups rows with identical code tuples over the
///    bound attributes. Categorical files at 10^5..10^6 rows carry only
///    C << n distinct tuples (the AdultProfile protected attributes admit at
///    most 16*7*14 = 1568), so the linkage measures' O(n) per-row scans and
///    O(n^2) inits collapse to O(C) and O(C*G) — the algorithmic win behind
///    the scale bench gates.
///
/// There is nothing to configure: the shard count is the worker count of
/// the scheduler the caller runs on (`ResolveShardCount`), and since any
/// shard count gives the same bits, that choice only moves wall time.

#ifndef EVOCAT_METRICS_PLANE_H_
#define EVOCAT_METRICS_PLANE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"

namespace evocat {
namespace metrics {

/// \brief Shard count for a build started on the calling thread: the
/// worker count of the scheduler it runs on (`TaskScheduler::Current()`,
/// else `Shared()` — the same routing `ParallelFor` takes), never below 1.
int ResolveShardCount();

/// \brief A contiguous row range [begin, end).
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end - begin; }
  bool empty() const { return end <= begin; }
};

/// \brief Shard `shard` of `rows` rows split into `shards` contiguous
/// ascending ranges: [shard*rows/shards, (shard+1)*rows/shards).
RowRange ShardRows(int64_t rows, int shard, int shards);

/// \brief Runs `fn(shard, range)` for every *non-empty* shard range, in
/// parallel over the TaskScheduler. Empty shards (rows < shards) are skipped
/// so they contribute identity to any merge instead of a degenerate partial.
void ForEachShard(int64_t rows, int shards,
                  const std::function<void(int, RowRange)>& fn);

/// \brief Static clustering of a dataset's rows by identical code tuples
/// over a fixed attribute set.
///
/// Cluster ids follow global first-occurrence (row-scan) order regardless of
/// the shard count used to build: per-shard insertion-ordered local tables
/// are merged serially in shard index order, and shard ranges are contiguous
/// ascending — so the merged order equals the serial scan order. Built once
/// per bound measure over the *original* file, sharded `ResolveShardCount()`
/// ways.
class PatternIndex {
 public:
  PatternIndex() = default;

  static PatternIndex Build(const Dataset& dataset,
                            const std::vector<int>& attrs);

  int64_t num_clusters() const {
    return static_cast<int64_t>(sizes_.size());
  }
  size_t num_attrs() const { return num_attrs_; }

  int32_t cluster_of(int64_t row) const {
    return row_cluster_[static_cast<size_t>(row)];
  }
  int64_t cluster_size(int64_t cluster) const {
    return sizes_[static_cast<size_t>(cluster)];
  }
  /// \brief The cluster's code tuple (one code per attribute, bound order).
  const int32_t* codes(int64_t cluster) const {
    return codes_.data() + static_cast<size_t>(cluster) * num_attrs_;
  }

 private:
  std::vector<int32_t> row_cluster_;  ///< row -> cluster id
  std::vector<int64_t> sizes_;        ///< cluster -> row count
  std::vector<int32_t> codes_;        ///< flat C x A code tuples
  size_t num_attrs_ = 0;
};

/// \brief Dynamic pattern groups over a *masked* file's code tuples.
///
/// Same deterministic first-occurrence id order as `PatternIndex`, plus
/// find-or-create maintenance under segment deltas: `ApplyRow` moves a row
/// to the group of its new tuple (creating one if unseen) and logs the move;
/// `UndoMoves` replays a log backwards. Groups are never deleted — a group
/// emptied by moves keeps its id at size 0, so the id sequence stays
/// deterministic across apply/revert cycles.
class MaskedGroups {
 public:
  /// One row's group transition, as logged by `ApplyRow`.
  struct Move {
    int64_t row = 0;
    int32_t old_group = 0;
  };

  MaskedGroups() = default;

  /// \brief Groups `masked`'s rows, sharded `ResolveShardCount()` ways.
  static MaskedGroups Build(const Dataset& masked,
                            const std::vector<int>& attrs);

  int64_t num_groups() const { return static_cast<int64_t>(sizes_.size()); }
  size_t num_attrs() const { return num_attrs_; }

  int32_t group_of(int64_t row) const {
    return row_group_[static_cast<size_t>(row)];
  }
  int64_t group_size(int64_t group) const {
    return sizes_[static_cast<size_t>(group)];
  }
  const int32_t* codes(int64_t group) const {
    return codes_.data() + static_cast<size_t>(group) * num_attrs_;
  }

  /// \brief Moves `row` to the group of `new_codes` (its full post-change
  /// tuple, bound order), creating the group if unseen, and appends the move
  /// to `undo` when the group actually changes. Returns the new group id.
  int32_t ApplyRow(int64_t row, const int32_t* new_codes,
                   std::vector<Move>* undo);

  /// \brief Finds the group of a tuple, creating it (size 0) if unseen.
  int32_t FindOrCreate(const int32_t* codes);

  /// \brief Replays a move log backwards, restoring each row's old group.
  void UndoMoves(const std::vector<Move>& moves);

 private:
  std::vector<int32_t> row_group_;  ///< row -> group id
  std::vector<int64_t> sizes_;      ///< group -> row count
  std::vector<int32_t> codes_;      ///< flat G x A code tuples
  /// hash(tuple) -> candidate group ids (collision-safe via code compare)
  std::unordered_map<uint64_t, std::vector<int32_t>> buckets_;
  size_t num_attrs_ = 0;
};

/// \brief Deterministic 64-bit hash of a code tuple (shared by the pattern
/// tables; quality matters only for bucket spread, equality is by compare).
uint64_t HashCodes(const int32_t* codes, size_t n);

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_PLANE_H_
