#include "metrics/measure.h"

#include <unordered_map>

namespace evocat {
namespace metrics {

SegmentDelta SegmentDelta::FromCells(const std::vector<CellDelta>& cells) {
  SegmentDelta segment;
  // Operator batches arrive row-sorted (flat gene order), so the common case
  // is an append to the last group; the map covers arbitrary batches. First
  // pass establishes group order and sizes, second scatters the cells so each
  // group is contiguous in the flat array.
  std::unordered_map<int64_t, size_t> index;
  for (const CellDelta& delta : cells) {
    if (!segment.groups_.empty() && segment.groups_.back().row == delta.row) {
      ++segment.groups_.back().count;
      continue;
    }
    auto it = index.find(delta.row);
    if (it == index.end()) {
      index.emplace(delta.row, segment.groups_.size());
      segment.groups_.push_back(Group{delta.row, 0, 1});
    } else {
      ++segment.groups_[it->second].count;
    }
  }
  int64_t offset = 0;
  std::vector<int64_t> cursor(segment.groups_.size(), 0);
  for (size_t s = 0; s < segment.groups_.size(); ++s) {
    segment.groups_[s].begin = offset;
    cursor[s] = offset;
    offset += segment.groups_[s].count;
  }
  segment.cells_.resize(cells.size());
  for (const CellDelta& delta : cells) {
    size_t slot = index[delta.row];
    segment.cells_[static_cast<size_t>(cursor[slot]++)] = delta;
  }
  return segment;
}

void SegmentDelta::Append(int64_t row, int attr, int32_t old_code,
                          int32_t new_code) {
  cells_.push_back(CellDelta{row, attr, old_code, new_code});
  if (groups_.empty() || groups_.back().row != row) {
    groups_.push_back(Group{row, static_cast<int64_t>(cells_.size()) - 1, 1});
  } else {
    ++groups_.back().count;
  }
}

namespace {

/// Correct-by-construction fallback: every ApplySegment is a full Compute of
/// the post-image. Used for measures without a true delta implementation.
class FullRecomputeState : public MeasureState {
 public:
  FullRecomputeState(const BoundMeasure* bound, double initial_score)
      : bound_(bound), score_(initial_score), prev_score_(initial_score) {}

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    prev_score_ = score_;
    if (!segment.empty()) score_ = bound_->Compute(masked_after);
  }

  void RevertSegment() override { score_ = prev_score_; }

  double Score() const override { return score_; }

 private:
  const BoundMeasure* bound_;
  double score_;
  double prev_score_;
};

}  // namespace

std::unique_ptr<MeasureState> BoundMeasure::BindState(
    const Dataset& masked) const {
  return std::make_unique<FullRecomputeState>(this, Compute(masked));
}

Status ValidateComparable(const Dataset& original, const Dataset& masked,
                          const std::vector<int>& attrs) {
  if (original.num_rows() == 0) {
    return Status::Invalid("original dataset is empty");
  }
  if (original.num_rows() != masked.num_rows()) {
    return Status::Invalid("row count mismatch: original ", original.num_rows(),
                           " vs masked ", masked.num_rows());
  }
  if (original.schema_ptr() != masked.schema_ptr()) {
    return Status::Invalid(
        "masked file must share the original's schema (dictionaries must be "
        "identical for codes to be comparable)");
  }
  if (attrs.empty()) {
    return Status::Invalid("no attributes given");
  }
  for (int a : attrs) {
    if (a < 0 || a >= original.num_attributes()) {
      return Status::OutOfRange("attribute index ", a, " out of range");
    }
  }
  return Status::OK();
}

Result<double> Measure::Compute(const Dataset& original, const Dataset& masked,
                                const std::vector<int>& attrs) const {
  EVOCAT_RETURN_NOT_OK(ValidateComparable(original, masked, attrs));
  EVOCAT_ASSIGN_OR_RETURN(auto bound, Bind(original, attrs));
  return bound->Compute(masked);
}

}  // namespace metrics
}  // namespace evocat
