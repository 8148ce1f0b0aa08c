#include "metrics/interval_disclosure.h"

#include "metrics/registry.h"

#include <cmath>

#include "data/stats.h"
#include "metrics/delta.h"
#include "metrics/plane.h"

namespace evocat {
namespace metrics {

namespace {

class BoundIntervalDisclosure : public BoundMeasure {
 public:
  BoundIntervalDisclosure(const Dataset& original, const std::vector<int>& attrs,
                          double window_percent)
      : original_(&original), attrs_(attrs) {
    window_ = window_percent / 100.0 * static_cast<double>(original.num_rows());
    for (int attr : attrs_) {
      original_midranks_.push_back(CategoryMidranks(original, attr));
    }
  }

  double Compute(const Dataset& masked) const override {
    int64_t n = original_->num_rows();
    double disclosed = 0.0;
    for (size_t i = 0; i < attrs_.size(); ++i) {
      int attr = attrs_[i];
      auto masked_midranks = CategoryMidranks(masked, attr);
      const auto& orig_col = original_->column(attr);
      const auto& mask_col = masked.column(attr);
      for (int64_t r = 0; r < n; ++r) {
        double rank_orig =
            original_midranks_[i][static_cast<size_t>(orig_col[static_cast<size_t>(r)])];
        double rank_mask =
            masked_midranks[static_cast<size_t>(mask_col[static_cast<size_t>(r)])];
        if (std::fabs(rank_orig - rank_mask) <= window_) disclosed += 1.0;
      }
    }
    double cells = static_cast<double>(n) * static_cast<double>(attrs_.size());
    return cells > 0 ? 100.0 * disclosed / cells : 0.0;
  }

  std::unique_ptr<MeasureState> BindState(const Dataset& masked) const override;

  const Dataset& original() const { return *original_; }
  const std::vector<int>& attrs() const { return attrs_; }
  const std::vector<double>& original_midranks(size_t i) const {
    return original_midranks_[i];
  }
  double window() const { return window_; }

 private:
  const Dataset* original_;
  std::vector<int> attrs_;
  std::vector<std::vector<double>> original_midranks_;
  double window_ = 0.0;
};

/// ID depends on the masked file only through (a) per-attribute category
/// counts (which determine the masked mid-ranks) and (b) per-attribute
/// (original category, masked category) pair counts. Both update in O(1) per
/// changed cell; the per-attribute disclosed total is then re-derived in
/// O(cardinality^2), independent of the number of records — the windowed
/// paircount merge is O(cells) at any segment width, hence fraction 1.0.
class IntervalDisclosureState : public MeasureState {
 public:
  IntervalDisclosureState(const BoundIntervalDisclosure* bound,
                          const Dataset& masked)
      : MeasureState(/*default_rebuild_fraction=*/1.0),
        bound_(bound),
        attr_pos_(AttrPositions(bound->attrs(), masked.num_attributes())) {
    InitFrom(masked);
    backup_ = core_;
  }

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    backup_ = core_;
    if (segment.num_cells() >= full_rebuild_threshold()) {
      InitFrom(masked_after);
      return;
    }
    std::vector<uint8_t> dirty(bound_->attrs().size(), 0);
    for (const CellDelta& delta : segment.cells()) {
      int pos = attr_pos_[static_cast<size_t>(delta.attr)];
      if (pos < 0 || delta.old_code == delta.new_code) continue;
      auto i = static_cast<size_t>(pos);
      auto o = static_cast<size_t>(bound_->original().Code(delta.row, delta.attr));
      size_t card = core_.counts[i].size();
      core_.counts[i][static_cast<size_t>(delta.old_code)] -= 1;
      core_.counts[i][static_cast<size_t>(delta.new_code)] += 1;
      core_.paircounts[i][o * card + static_cast<size_t>(delta.old_code)] -= 1;
      core_.paircounts[i][o * card + static_cast<size_t>(delta.new_code)] += 1;
      dirty[i] = 1;
    }
    for (size_t i = 0; i < dirty.size(); ++i) {
      if (dirty[i]) RefreshAttr(i);
    }
    RefreshScore();
  }

  void RevertSegment() override { core_ = backup_; }

  double Score() const override { return core_.score; }

 private:
  struct Core {
    std::vector<std::vector<int64_t>> counts;      ///< masked marginals
    std::vector<std::vector<int64_t>> paircounts;  ///< [orig][masked] per attr
    std::vector<int64_t> disclosed;
    double score = 0.0;
  };

  /// Row-sharded marginal + paircount build: per-shard int64 partials merged
  /// index-wise, identical to the serial scan for any shard count.
  void InitFrom(const Dataset& masked) {
    const auto& attrs = bound_->attrs();
    int64_t n = bound_->original().num_rows();
    int shards = ResolveShardCount();
    core_.counts.resize(attrs.size());
    core_.paircounts.resize(attrs.size());
    core_.disclosed.assign(attrs.size(), 0);
    for (size_t i = 0; i < attrs.size(); ++i) {
      int attr = attrs[i];
      auto card = static_cast<size_t>(
          bound_->original().schema().attribute(attr).cardinality());
      const auto& orig_col = bound_->original().column(attr);
      const auto& mask_col = masked.column(attr);
      std::vector<std::vector<int64_t>> count_partials(
          static_cast<size_t>(shards), std::vector<int64_t>(card, 0));
      std::vector<std::vector<int64_t>> pair_partials(
          static_cast<size_t>(shards), std::vector<int64_t>(card * card, 0));
      ForEachShard(n, shards, [&](int shard, RowRange range) {
        int64_t* counts = count_partials[static_cast<size_t>(shard)].data();
        int64_t* pairs = pair_partials[static_cast<size_t>(shard)].data();
        for (int64_t r = range.begin; r < range.end; ++r) {
          auto o = static_cast<size_t>(orig_col[static_cast<size_t>(r)]);
          auto m = static_cast<size_t>(mask_col[static_cast<size_t>(r)]);
          counts[m] += 1;
          pairs[o * card + m] += 1;
        }
      });
      for (int s = 1; s < shards; ++s) {
        const auto& counts = count_partials[static_cast<size_t>(s)];
        const auto& pairs = pair_partials[static_cast<size_t>(s)];
        for (size_t c = 0; c < card; ++c) count_partials[0][c] += counts[c];
        for (size_t c = 0; c < card * card; ++c) {
          pair_partials[0][c] += pairs[c];
        }
      }
      core_.counts[i] = std::move(count_partials[0]);
      core_.paircounts[i] = std::move(pair_partials[0]);
      RefreshAttr(i);
    }
    RefreshScore();
  }

  void RefreshAttr(size_t i) {
    auto masked_midranks = MidranksFromCounts(core_.counts[i]);
    const auto& orig_midranks = bound_->original_midranks(i);
    size_t card = core_.counts[i].size();
    double window = bound_->window();
    int64_t disclosed = 0;
    for (size_t o = 0; o < card; ++o) {
      for (size_t m = 0; m < card; ++m) {
        int64_t count = core_.paircounts[i][o * card + m];
        if (count != 0 &&
            std::fabs(orig_midranks[o] - masked_midranks[m]) <= window) {
          disclosed += count;
        }
      }
    }
    core_.disclosed[i] = disclosed;
  }

  void RefreshScore() {
    double disclosed = 0.0;
    for (int64_t d : core_.disclosed) disclosed += static_cast<double>(d);
    double cells = static_cast<double>(bound_->original().num_rows()) *
                   static_cast<double>(bound_->attrs().size());
    core_.score = cells > 0 ? 100.0 * disclosed / cells : 0.0;
  }

  const BoundIntervalDisclosure* bound_;
  std::vector<int> attr_pos_;
  Core core_;
  Core backup_;
};

std::unique_ptr<MeasureState> BoundIntervalDisclosure::BindState(
    const Dataset& masked) const {
  return std::make_unique<IntervalDisclosureState>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> IntervalDisclosure::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  if (window_percent_ <= 0.0 || window_percent_ > 100.0) {
    return Status::Invalid("ID window must be in (0, 100], got ",
                           window_percent_);
  }
  return std::unique_ptr<BoundMeasure>(
      new BoundIntervalDisclosure(original, attrs, window_percent_));
}

void RegisterIntervalDisclosureMeasure(MeasureRegistry* registry) {
  registry->Register(
      "ID", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("ID", params);
        double window_percent = reader.GetDouble("window_percent", 10.0);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(new IntervalDisclosure(window_percent));
      });
}

}  // namespace metrics
}  // namespace evocat
