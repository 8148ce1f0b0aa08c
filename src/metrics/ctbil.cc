#include "metrics/ctbil.h"

#include "metrics/registry.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "data/stats.h"
#include "metrics/delta.h"
#include "metrics/plane.h"

namespace evocat {
namespace metrics {

namespace {

class BoundCtbIl : public BoundMeasure {
 public:
  BoundCtbIl(const Dataset& original, std::vector<std::vector<int>> subsets)
      : subsets_(std::move(subsets)) {
    original_tables_.reserve(subsets_.size());
    for (const auto& subset : subsets_) {
      original_tables_.push_back(
          std::move(ContingencyTable::Build(original, subset)).ValueOrDie());
    }
    n_ = original.num_rows();
  }

  double Compute(const Dataset& masked) const override {
    double total = 0.0;
    for (size_t i = 0; i < subsets_.size(); ++i) {
      auto masked_table =
          std::move(ContingencyTable::Build(masked, subsets_[i])).ValueOrDie();
      total += static_cast<double>(original_tables_[i].L1Distance(masked_table));
    }
    return ScoreFromL1Total(total);
  }

  std::unique_ptr<MeasureState> BindState(const Dataset& masked) const override;

  double ScoreFromL1Total(double total) const {
    // Each table's L1 distance is at most 2n, so this lands in [0, 100].
    double denom = 2.0 * static_cast<double>(n_) *
                   static_cast<double>(subsets_.size());
    return denom > 0 ? 100.0 * total / denom : 0.0;
  }

  int64_t OriginalCount(size_t subset, uint64_t key) const {
    const auto& cells = original_tables_[subset].cells();
    auto it = cells.find(key);
    return it == cells.end() ? 0 : it->second;
  }

  const ContingencyTable& original_table(size_t subset) const {
    return original_tables_[subset];
  }

  const std::vector<std::vector<int>>& subsets() const { return subsets_; }
  int64_t num_rows() const { return n_; }

 private:
  std::vector<std::vector<int>> subsets_;
  std::vector<ContingencyTable> original_tables_;
  int64_t n_ = 0;
};

/// CTBIL compares masked and original contingency tables cell-wise. The
/// state keeps each subset's masked table plus its current L1 distance; a
/// changed row moves one unit of count from its old cell key to its new one
/// in every subset that contains a touched attribute, adjusting the L1
/// contribution of exactly those two cells. The group update is O(cells)
/// regardless of segment width, so the cost model only rebuilds for
/// genome-sized batches (fraction 1.0).
class CtbIlState : public MeasureState {
 public:
  CtbIlState(const BoundCtbIl* bound, const Dataset& masked)
      : MeasureState(/*rebuild_fraction=*/1.0), bound_(bound) {
    // Subsets that contain a given schema attribute.
    for (size_t s = 0; s < bound_->subsets().size(); ++s) {
      for (int attr : bound_->subsets()[s]) {
        if (attr >= static_cast<int>(subsets_of_attr_.size())) {
          subsets_of_attr_.resize(static_cast<size_t>(attr) + 1);
        }
        subsets_of_attr_[static_cast<size_t>(attr)].push_back(s);
      }
    }
    InitFrom(masked);
    undo_l1_ = core_.l1;
    undo_score_ = core_.score;
  }

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    undo_cells_.clear();
    undo_l1_ = core_.l1;
    undo_score_ = core_.score;
    if (ReachesThreshold(segment)) {
      backup_tables_ = core_.tables;
      InitFrom(masked_after);
      return;
    }

    const auto& subsets = bound_->subsets();
    std::vector<int32_t> codes;
    for (const RowDelta& row : segment.rows()) {
      // Union of subsets touched by this row's changed attributes.
      touched_.clear();
      for (const auto& cell : row.cells) {
        if (cell.attr < static_cast<int>(subsets_of_attr_.size())) {
          for (size_t s : subsets_of_attr_[static_cast<size_t>(cell.attr)]) {
            if (std::find(touched_.begin(), touched_.end(), s) == touched_.end()) {
              touched_.push_back(s);
            }
          }
        }
      }
      for (size_t s : touched_) {
        const auto& subset = subsets[s];
        codes.resize(subset.size());
        for (size_t k = 0; k < subset.size(); ++k) {
          codes[k] = row.OldCode(masked_after, subset[k]);
        }
        uint64_t old_key = ContingencyTable::PackKey(codes);
        for (size_t k = 0; k < subset.size(); ++k) {
          codes[k] = masked_after.Code(row.row, subset[k]);
        }
        uint64_t new_key = ContingencyTable::PackKey(codes);
        if (old_key == new_key) continue;
        Bump(s, old_key, -1);
        Bump(s, new_key, +1);
      }
    }
    RefreshScore();
  }

  void RevertSegment() override {
    if (rebuilt()) {
      core_.tables = backup_tables_;
    } else {
      // Walk the log backwards restoring the first-recorded counts.
      for (auto it = undo_cells_.rbegin(); it != undo_cells_.rend(); ++it) {
        auto& cells = core_.tables[it->subset];
        if (it->old_count == 0) {
          cells.erase(it->key);
        } else {
          cells[it->key] = it->old_count;
        }
      }
    }
    core_.l1 = undo_l1_;
    core_.score = undo_score_;
    undo_cells_.clear();
  }

  double Score() const override { return core_.score; }

 private:
  struct UndoCell {
    size_t subset;
    uint64_t key;
    int64_t old_count;
  };

  /// Row-sharded table build: each shard accumulates a private cell map over
  /// its contiguous range, merged serially in shard index order. Counts are
  /// integers, so the merged table — and the int64 L1 fold below — is
  /// identical to the serial `ContingencyTable::Build` for any shard count.
  void InitFrom(const Dataset& masked) {
    const auto& subsets = bound_->subsets();
    int64_t n = bound_->num_rows();
    int shards = ResolveShardCount();
    core_.tables.assign(subsets.size(), {});
    core_.l1.assign(subsets.size(), 0);
    for (size_t s = 0; s < subsets.size(); ++s) {
      std::vector<std::unordered_map<uint64_t, int64_t>> partials(
          static_cast<size_t>(shards));
      ForEachShard(n, shards, [&](int shard, RowRange range) {
        ContingencyTable::AccumulateRange(
            masked, subsets[s], range.begin, range.end,
            &partials[static_cast<size_t>(shard)]);
      });
      core_.tables[s] = std::move(partials[0]);
      for (int shard = 1; shard < shards; ++shard) {
        for (const auto& [key, count] : partials[static_cast<size_t>(shard)]) {
          core_.tables[s][key] += count;
        }
      }
      int64_t l1 = 0;
      for (const auto& [key, count] : core_.tables[s]) {
        l1 += std::llabs(count - bound_->OriginalCount(s, key));
      }
      // Cells present only in the original table.
      for (const auto& [key, count] : bound_->original_table(s).cells()) {
        if (core_.tables[s].find(key) == core_.tables[s].end()) {
          l1 += std::llabs(count);
        }
      }
      core_.l1[s] = l1;
    }
    RefreshScore();
  }

  void Bump(size_t s, uint64_t key, int64_t delta) {
    auto& cells = core_.tables[s];
    auto [it, inserted] = cells.try_emplace(key, 0);
    int64_t before = it->second;
    undo_cells_.push_back(UndoCell{s, key, before});
    int64_t after = before + delta;
    int64_t orig = bound_->OriginalCount(s, key);
    core_.l1[s] += std::llabs(after - orig) - std::llabs(before - orig);
    if (after == 0) {
      cells.erase(it);
    } else {
      it->second = after;
    }
  }

  void RefreshScore() {
    double total = 0.0;
    for (int64_t l1 : core_.l1) total += static_cast<double>(l1);
    core_.score = bound_->ScoreFromL1Total(total);
  }

  struct Core {
    std::vector<std::unordered_map<uint64_t, int64_t>> tables;
    std::vector<int64_t> l1;
    double score = 0.0;
  };

  const BoundCtbIl* bound_;
  std::vector<std::vector<size_t>> subsets_of_attr_;
  std::vector<size_t> touched_;
  Core core_;
  std::vector<UndoCell> undo_cells_;
  std::vector<int64_t> undo_l1_;
  double undo_score_ = 0.0;
  std::vector<std::unordered_map<uint64_t, int64_t>> backup_tables_;
};

std::unique_ptr<MeasureState> BoundCtbIl::BindState(const Dataset& masked) const {
  return std::make_unique<CtbIlState>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> CtbIl::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  // Enumerate attribute subsets of size 1..max_dimension (over positions in
  // `attrs`, then map back to schema indices).
  std::vector<std::vector<int>> subsets;
  int n_attrs = static_cast<int>(attrs.size());
  int top = std::min(max_dimension_, n_attrs);
  for (int k = 1; k <= top; ++k) {
    for (const auto& positions : SubsetsOfSize(n_attrs, k)) {
      std::vector<int> subset;
      subset.reserve(positions.size());
      for (int p : positions) subset.push_back(attrs[static_cast<size_t>(p)]);
      subsets.push_back(std::move(subset));
    }
  }
  return std::unique_ptr<BoundMeasure>(
      new BoundCtbIl(original, std::move(subsets)));
}

void RegisterCtbilMeasure(MeasureRegistry* registry) {
  registry->Register(
      "CTBIL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("CTBIL", params);
        int max_dimension = reader.GetInt("max_dimension", 2, 1);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(new CtbIl(max_dimension));
      });
}

}  // namespace metrics
}  // namespace evocat
