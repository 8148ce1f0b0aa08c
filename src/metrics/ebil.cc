#include "metrics/ebil.h"

#include "metrics/registry.h"

#include <cmath>

#include "common/math_utils.h"
#include "metrics/delta.h"
#include "metrics/plane.h"

namespace evocat {
namespace metrics {

namespace {

/// Normalized expected conditional entropy H(O|M) of one attribute from its
/// (masked, original) joint count table — the kernel shared by the full and
/// incremental paths so both produce bit-identical values.
double AttrEntropyLoss(const std::vector<double>& joint, int card, int64_t n) {
  double cond_entropy = 0.0;
  std::vector<double> row(static_cast<size_t>(card));
  for (int m = 0; m < card; ++m) {
    double row_total = 0.0;
    for (int o = 0; o < card; ++o) {
      row[static_cast<size_t>(o)] =
          joint[static_cast<size_t>(m) * card + static_cast<size_t>(o)];
      row_total += row[static_cast<size_t>(o)];
    }
    if (row_total <= 0.0) continue;
    cond_entropy += (row_total / static_cast<double>(n)) * Entropy(row);
  }
  double max_entropy = std::log2(static_cast<double>(card));
  return max_entropy > 0 ? cond_entropy / max_entropy : 0.0;
}

class BoundEbIl : public BoundMeasure {
 public:
  BoundEbIl(const Dataset& original, const std::vector<int>& attrs)
      : original_(&original), attrs_(attrs) {}

  double Compute(const Dataset& masked) const override {
    double sum_attr_loss = 0.0;
    for (size_t i = 0; i < attrs_.size(); ++i) {
      sum_attr_loss += AttrEntropyLoss(BuildJoint(masked, attrs_[i]),
                                       Cardinality(attrs_[i]),
                                       original_->num_rows());
    }
    return attrs_.empty()
               ? 0.0
               : 100.0 * sum_attr_loss / static_cast<double>(attrs_.size());
  }

  std::unique_ptr<MeasureState> BindState(const Dataset& masked) const override;

  /// \brief Joint counts J[m][o] of (masked, original) category pairs.
  ///
  /// Row-sharded into int64 partials merged index-wise; counts stay below
  /// 2^53, so the final copy to double is exact and identical to the serial
  /// += 1.0 accumulation for any shard count.
  std::vector<double> BuildJoint(const Dataset& masked, int attr) const {
    auto card = static_cast<size_t>(Cardinality(attr));
    const auto& orig_col = original_->column(attr);
    const auto& mask_col = masked.column(attr);
    int64_t n = original_->num_rows();
    int shards = ResolveShardCount();
    std::vector<std::vector<int64_t>> partials(
        static_cast<size_t>(shards), std::vector<int64_t>(card * card, 0));
    ForEachShard(n, shards, [&](int shard, RowRange range) {
      int64_t* counts = partials[static_cast<size_t>(shard)].data();
      for (int64_t r = range.begin; r < range.end; ++r) {
        auto m = static_cast<size_t>(mask_col[static_cast<size_t>(r)]);
        auto o = static_cast<size_t>(orig_col[static_cast<size_t>(r)]);
        counts[m * card + o] += 1;
      }
    });
    std::vector<int64_t>& counts = partials[0];
    for (int s = 1; s < shards; ++s) {
      const auto& partial = partials[static_cast<size_t>(s)];
      for (size_t c = 0; c < counts.size(); ++c) counts[c] += partial[c];
    }
    std::vector<double> joint(card * card, 0.0);
    for (size_t c = 0; c < counts.size(); ++c) {
      joint[c] = static_cast<double>(counts[c]);
    }
    return joint;
  }

  int Cardinality(int attr) const {
    return original_->schema().attribute(attr).cardinality();
  }

  const Dataset& original() const { return *original_; }
  const std::vector<int>& attrs() const { return attrs_; }

 private:
  const Dataset* original_;
  std::vector<int> attrs_;
};

/// EBIL depends on the masked file only through per-attribute joint count
/// tables; a delta moves one unit of mass per changed cell and re-derives
/// the entropy term of just the touched attributes — O(cells + card²) at
/// any segment width, hence rebuild fraction 1.0.
class EbIlState : public MeasureState {
 public:
  EbIlState(const BoundEbIl* bound, const Dataset& masked)
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
      auto card = static_cast<size_t>(bound_->Cardinality(delta.attr));
      auto o = static_cast<size_t>(bound_->original().Code(delta.row, delta.attr));
      core_.joints[i][static_cast<size_t>(delta.old_code) * card + o] -= 1.0;
      core_.joints[i][static_cast<size_t>(delta.new_code) * card + o] += 1.0;
      dirty[i] = 1;
    }
    for (size_t i = 0; i < dirty.size(); ++i) {
      if (dirty[i]) {
        core_.attr_loss[i] =
            AttrEntropyLoss(core_.joints[i], bound_->Cardinality(bound_->attrs()[i]),
                            bound_->original().num_rows());
      }
    }
    RefreshScore();
  }

  void RevertSegment() override { core_ = backup_; }

  double Score() const override { return core_.score; }

 private:
  struct Core {
    std::vector<std::vector<double>> joints;  ///< per bound attr
    std::vector<double> attr_loss;
    double score = 0.0;
  };

  void InitFrom(const Dataset& masked) {
    const auto& attrs = bound_->attrs();
    core_.joints.resize(attrs.size());
    core_.attr_loss.assign(attrs.size(), 0.0);
    for (size_t i = 0; i < attrs.size(); ++i) {
      core_.joints[i] = bound_->BuildJoint(masked, attrs[i]);
      core_.attr_loss[i] =
          AttrEntropyLoss(core_.joints[i], bound_->Cardinality(attrs[i]),
                          bound_->original().num_rows());
    }
    RefreshScore();
  }

  void RefreshScore() {
    double sum = 0.0;
    for (double loss : core_.attr_loss) sum += loss;
    core_.score = core_.attr_loss.empty()
                      ? 0.0
                      : 100.0 * sum / static_cast<double>(core_.attr_loss.size());
  }

  const BoundEbIl* bound_;
  std::vector<int> attr_pos_;
  Core core_;
  Core backup_;
};

std::unique_ptr<MeasureState> BoundEbIl::BindState(const Dataset& masked) const {
  return std::make_unique<EbIlState>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> EbIl::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  return std::unique_ptr<BoundMeasure>(new BoundEbIl(original, attrs));
}

void RegisterEbilMeasure(MeasureRegistry* registry) {
  registry->Register(
      "EBIL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("EBIL", params);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(new EbIl());
      });
}

}  // namespace metrics
}  // namespace evocat
