#include "metrics/dbil.h"

#include "metrics/registry.h"

#include "metrics/delta.h"
#include "metrics/distance.h"
#include "metrics/plane.h"

namespace evocat {
namespace metrics {

namespace {

class BoundDbIl : public BoundMeasure {
 public:
  BoundDbIl(const Dataset& original, const std::vector<int>& attrs)
      : original_(&original), tables_(original, attrs) {}

  double Compute(const Dataset& masked) const override {
    const auto& attrs = tables_.attrs();
    int64_t n = original_->num_rows();
    double total = 0.0;
    for (size_t i = 0; i < attrs.size(); ++i) {
      total += AttrTotal(masked, i);
    }
    double cells = static_cast<double>(n) * static_cast<double>(attrs.size());
    return cells > 0 ? 100.0 * total / cells : 0.0;
  }

  std::unique_ptr<MeasureState> BindState(const Dataset& masked) const override;

  /// \brief Summed value distance of one bound attribute's column.
  ///
  /// Computed from the joint (original, masked) code counts rather than a
  /// per-row float sum: the integer joint shards-and-merges exactly, and the
  /// fixed (o, m) fold order makes the total independent of row order — so
  /// serial and sharded builds, and Compute vs state init, agree bitwise.
  double AttrTotal(const Dataset& masked, size_t i) const {
    int attr = tables_.attrs()[i];
    int64_t n = original_->num_rows();
    const auto& orig_col = original_->column(attr);
    const auto& mask_col = masked.column(attr);
    auto card = static_cast<size_t>(
        original_->schema().attribute(attr).cardinality());
    int shards = ResolveShardCount();
    std::vector<std::vector<int64_t>> partials(
        static_cast<size_t>(shards), std::vector<int64_t>(card * card, 0));
    ForEachShard(n, shards, [&](int shard, RowRange range) {
      int64_t* joint = partials[static_cast<size_t>(shard)].data();
      for (int64_t r = range.begin; r < range.end; ++r) {
        joint[static_cast<size_t>(orig_col[static_cast<size_t>(r)]) * card +
              static_cast<size_t>(mask_col[static_cast<size_t>(r)])] += 1;
      }
    });
    std::vector<int64_t>& joint = partials[0];
    for (int s = 1; s < shards; ++s) {
      const auto& partial = partials[static_cast<size_t>(s)];
      for (size_t c = 0; c < joint.size(); ++c) joint[c] += partial[c];
    }
    double total = 0.0;
    for (size_t o = 0; o < card; ++o) {
      for (size_t m = 0; m < card; ++m) {
        int64_t count = joint[o * card + m];
        if (count > 0) {
          total += static_cast<double>(count) *
                   tables_.At(i, static_cast<int32_t>(o),
                              static_cast<int32_t>(m));
        }
      }
    }
    return total;
  }

  const Dataset& original() const { return *original_; }
  const DistanceTables& tables() const { return tables_; }

 private:
  const Dataset* original_;
  DistanceTables tables_;
};

/// DBIL is a sum of independent per-cell distance terms, so a delta just
/// swaps the changed cells' terms inside per-attribute running totals —
/// O(cells) at any segment width, hence rebuild fraction 1.0.
class DbIlState : public MeasureState {
 public:
  DbIlState(const BoundDbIl* bound, const Dataset& masked)
      : MeasureState(/*rebuild_fraction=*/1.0),
        bound_(bound),
        attr_pos_(AttrPositions(bound->tables().attrs(),
                                masked.num_attributes())) {
    InitFrom(masked);
    backup_ = core_;
  }

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    backup_ = core_;
    if (ReachesThreshold(segment)) {
      InitFrom(masked_after);
      return;
    }
    const auto& tables = bound_->tables();
    for (const CellDelta& delta : segment.cells()) {
      int pos = attr_pos_[static_cast<size_t>(delta.attr)];
      if (pos < 0 || delta.old_code == delta.new_code) continue;
      int32_t orig = bound_->original().Code(delta.row, delta.attr);
      auto i = static_cast<size_t>(pos);
      core_.attr_totals[i] +=
          tables.At(i, orig, delta.new_code) - tables.At(i, orig, delta.old_code);
    }
    RefreshScore();
  }

  void RevertSegment() override { core_ = backup_; }

  double Score() const override { return core_.score; }

 private:
  struct Core {
    std::vector<double> attr_totals;
    double score = 0.0;
  };

  void InitFrom(const Dataset& masked) {
    size_t num_attrs = bound_->tables().attrs().size();
    core_.attr_totals.assign(num_attrs, 0.0);
    for (size_t i = 0; i < num_attrs; ++i) {
      core_.attr_totals[i] = bound_->AttrTotal(masked, i);
    }
    RefreshScore();
  }

  void RefreshScore() {
    double total = 0.0;
    for (double t : core_.attr_totals) total += t;
    double cells = static_cast<double>(bound_->original().num_rows()) *
                   static_cast<double>(core_.attr_totals.size());
    core_.score = cells > 0 ? 100.0 * total / cells : 0.0;
  }

  const BoundDbIl* bound_;
  std::vector<int> attr_pos_;
  Core core_;
  Core backup_;
};

std::unique_ptr<MeasureState> BoundDbIl::BindState(const Dataset& masked) const {
  return std::make_unique<DbIlState>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> DbIl::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  return std::unique_ptr<BoundMeasure>(new BoundDbIl(original, attrs));
}

void RegisterDbilMeasure(MeasureRegistry* registry) {
  registry->Register(
      "DBIL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("DBIL", params);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(new DbIl());
      });
}

}  // namespace metrics
}  // namespace evocat
