// The three cell measures, DBIL, EBIL and ID, and the one incremental state
// they bind. Each reads a masked file only through one table per protected
// attribute, the counts of its (original, masked) category pairs, so the
// state keeps those joint counts and each measure supplies its term of one
// attribute's joint and its scale.

#include "metrics/dbil.h"
#include "metrics/ebil.h"
#include "metrics/interval_disclosure.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/math_utils.h"
#include "data/stats.h"
#include "metrics/delta.h"
#include "metrics/distance.h"
#include "metrics/plane.h"
#include "metrics/registry.h"

namespace evocat {
namespace metrics {

namespace {

/// Joint counts J[o * card + m] of one attribute's (original, masked)
/// category pairs. A count is at most n.
using Joint = std::vector<int32_t>;

/// Original-side data of the cell measures and their one joint build. A
/// measure's score is 100 · Σ terms / (attr_scale · A): DBIL and ID count
/// per cell (attr_scale n), EBIL averages normalised entropies (1).
class BoundCellMeasure : public BoundMeasure {
 public:
  BoundCellMeasure(const Dataset& original, const std::vector<int>& attrs,
                   double attr_scale)
      : original_(&original), attrs_(attrs), attr_scale_(attr_scale) {
    for (int attr : attrs) {
      cards_.push_back(
          static_cast<size_t>(original.schema().attribute(attr).cardinality()));
    }
  }

  /// Folds the joints of `masked` with the arithmetic every state refresh
  /// runs, so a bound state starts at exactly this score.
  double Compute(const Dataset& masked) const override {
    std::vector<double> terms(attrs_.size());
    for (size_t i = 0; i < attrs_.size(); ++i) {
      terms[i] = Term(i, BuildJoint(masked, i));
    }
    return ScoreFromTerms(terms);
  }

  std::unique_ptr<MeasureState> BindState(const Dataset& masked) const override;

  /// \brief The measure's term of bound attribute `i` from its joint.
  virtual double Term(size_t i, const Joint& joint) const = 0;

  double ScoreFromTerms(const std::vector<double>& terms) const {
    double total = 0.0;
    for (double term : terms) total += term;
    double scale = attr_scale_ * static_cast<double>(terms.size());
    return scale > 0 ? 100.0 * total / scale : 0.0;
  }

  /// \brief The joint of bound attribute `i` under `masked`.
  ///
  /// Row-sharded into integer partials merged index-wise, so the joint is
  /// the serial scan's for any shard count.
  Joint BuildJoint(const Dataset& masked, size_t i) const {
    size_t card = cards_[i];
    const auto& orig_col = original_->column(attrs_[i]);
    const auto& mask_col = masked.column(attrs_[i]);
    int shards = ResolveShardCount();
    std::vector<Joint> partials(static_cast<size_t>(shards),
                                Joint(card * card, 0));
    ForEachShard(original_->num_rows(), shards, [&](int shard, RowRange range) {
      int32_t* joint = partials[static_cast<size_t>(shard)].data();
      for (int64_t r = range.begin; r < range.end; ++r) {
        joint[static_cast<size_t>(orig_col[static_cast<size_t>(r)]) * card +
              static_cast<size_t>(mask_col[static_cast<size_t>(r)])] += 1;
      }
    });
    Joint& joint = partials[0];
    for (int s = 1; s < shards; ++s) {
      const Joint& partial = partials[static_cast<size_t>(s)];
      for (size_t c = 0; c < joint.size(); ++c) joint[c] += partial[c];
    }
    return std::move(partials[0]);
  }

  const Dataset& original() const { return *original_; }
  const std::vector<int>& attrs() const { return attrs_; }
  size_t cardinality(size_t i) const { return cards_[i]; }

 protected:
  const Dataset* original_;
  std::vector<int> attrs_;
  std::vector<size_t> cards_;
  double attr_scale_;
};

class BoundDbIl : public BoundCellMeasure {
 public:
  BoundDbIl(const Dataset& original, const std::vector<int>& attrs)
      : BoundCellMeasure(original, attrs,
                         static_cast<double>(original.num_rows())),
        tables_(original, attrs) {}

  /// Summed value distance of the attribute's cells, folded over the joint
  /// in (o, m) order: independent of row order and exact for any shard
  /// count.
  double Term(size_t i, const Joint& joint) const override {
    size_t card = cards_[i];
    double total = 0.0;
    for (size_t o = 0; o < card; ++o) {
      for (size_t m = 0; m < card; ++m) {
        int32_t count = joint[o * card + m];
        if (count > 0) {
          total += static_cast<double>(count) *
                   tables_.At(i, static_cast<int32_t>(o),
                              static_cast<int32_t>(m));
        }
      }
    }
    return total;
  }

 private:
  DistanceTables tables_;
};

class BoundEbIl : public BoundCellMeasure {
 public:
  BoundEbIl(const Dataset& original, const std::vector<int>& attrs)
      : BoundCellMeasure(original, attrs, 1.0) {}

  /// Normalised expected conditional entropy H(O|M): the joint read as an
  /// empirical PRAM matrix, one masked category (column) at a time.
  double Term(size_t i, const Joint& joint) const override {
    size_t card = cards_[i];
    double cond_entropy = 0.0;
    std::vector<double> column(card);
    for (size_t m = 0; m < card; ++m) {
      double column_total = 0.0;
      for (size_t o = 0; o < card; ++o) {
        column[o] = static_cast<double>(joint[o * card + m]);
        column_total += column[o];
      }
      if (column_total <= 0.0) continue;
      cond_entropy +=
          (column_total / static_cast<double>(original_->num_rows())) *
          Entropy(column);
    }
    double max_entropy = std::log2(static_cast<double>(card));
    return max_entropy > 0 ? cond_entropy / max_entropy : 0.0;
  }
};

class BoundIntervalDisclosure : public BoundCellMeasure {
 public:
  BoundIntervalDisclosure(const Dataset& original, const std::vector<int>& attrs,
                          double window_percent)
      : BoundCellMeasure(original, attrs,
                         static_cast<double>(original.num_rows())) {
    window_ = window_percent / 100.0 * static_cast<double>(original.num_rows());
    for (int attr : attrs_) {
      original_midranks_.push_back(CategoryMidranks(original, attr));
    }
  }

  /// The per-row oracle: the states count the same cells from the joints.
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

  /// Cells whose masked category's mid-rank lies within the window of their
  /// original category's. The masked mid-ranks come from the joint's column
  /// sums, the masked marginals.
  double Term(size_t i, const Joint& joint) const override {
    size_t card = cards_[i];
    std::vector<int64_t> masked_counts(card, 0);
    for (size_t o = 0; o < card; ++o) {
      for (size_t m = 0; m < card; ++m) masked_counts[m] += joint[o * card + m];
    }
    auto masked_midranks = MidranksFromCounts(masked_counts);
    const auto& orig_midranks = original_midranks_[i];
    int64_t disclosed = 0;
    for (size_t o = 0; o < card; ++o) {
      for (size_t m = 0; m < card; ++m) {
        int32_t count = joint[o * card + m];
        if (count != 0 &&
            std::fabs(orig_midranks[o] - masked_midranks[m]) <= window_) {
          disclosed += count;
        }
      }
    }
    return static_cast<double>(disclosed);
  }

 private:
  std::vector<std::vector<double>> original_midranks_;
  double window_ = 0.0;
};

/// The one incremental state of the cell measures: per-attribute joints and
/// terms. A changed cell moves one count of its attribute's joint, and an
/// apply re-derives the touched attributes' terms, O(c + dirty · card²) at
/// any segment width, hence rebuild fraction 1.0. Undo restores a copy:
/// the joints are only A · card² counts.
class CellMeasureState : public MeasureState {
 public:
  CellMeasureState(const BoundCellMeasure* bound, const Dataset& masked)
      : MeasureState(/*rebuild_fraction=*/1.0),
        bound_(bound),
        attr_pos_(AttrPositions(bound->attrs(), masked.num_attributes())) {
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
    std::vector<uint8_t> dirty(core_.joints.size(), 0);
    for (const CellDelta& delta : segment.cells()) {
      int pos = attr_pos_[static_cast<size_t>(delta.attr)];
      if (pos < 0 || delta.old_code == delta.new_code) continue;
      auto i = static_cast<size_t>(pos);
      int32_t* joint_row =
          core_.joints[i].data() +
          static_cast<size_t>(bound_->original().Code(delta.row, delta.attr)) *
              bound_->cardinality(i);
      joint_row[delta.old_code] -= 1;
      joint_row[delta.new_code] += 1;
      dirty[i] = 1;
    }
    for (size_t i = 0; i < dirty.size(); ++i) {
      if (dirty[i]) core_.terms[i] = bound_->Term(i, core_.joints[i]);
    }
    core_.score = bound_->ScoreFromTerms(core_.terms);
  }

  void RevertSegment() override { core_ = backup_; }

  double Score() const override { return core_.score; }

 private:
  struct Core {
    std::vector<Joint> joints;  ///< per bound attribute
    std::vector<double> terms;
    double score = 0.0;
  };

  void InitFrom(const Dataset& masked) {
    size_t num_attrs = bound_->attrs().size();
    core_.joints.resize(num_attrs);
    core_.terms.resize(num_attrs);
    for (size_t i = 0; i < num_attrs; ++i) {
      core_.joints[i] = bound_->BuildJoint(masked, i);
      core_.terms[i] = bound_->Term(i, core_.joints[i]);
    }
    core_.score = bound_->ScoreFromTerms(core_.terms);
  }

  const BoundCellMeasure* bound_;
  std::vector<int> attr_pos_;
  Core core_;
  Core backup_;
};

std::unique_ptr<MeasureState> BoundCellMeasure::BindState(
    const Dataset& masked) const {
  return std::make_unique<CellMeasureState>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> DbIl::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  return std::unique_ptr<BoundMeasure>(new BoundDbIl(original, attrs));
}

Result<std::unique_ptr<BoundMeasure>> EbIl::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  return std::unique_ptr<BoundMeasure>(new BoundEbIl(original, attrs));
}

Result<std::unique_ptr<BoundMeasure>> IntervalDisclosure::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  return std::unique_ptr<BoundMeasure>(
      new BoundIntervalDisclosure(original, attrs, window_percent_));
}

void RegisterDbilMeasure(MeasureRegistry* registry) {
  registry->Register(
      "DBIL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("DBIL", params);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(new DbIl());
      });
}

void RegisterEbilMeasure(MeasureRegistry* registry) {
  registry->Register(
      "EBIL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("EBIL", params);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(new EbIl());
      });
}

void RegisterIntervalDisclosureMeasure(MeasureRegistry* registry) {
  registry->Register(
      "ID", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("ID", params);
        double window_percent = reader.GetDouble("window_percent", 10.0);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        if (window_percent <= 0.0 || window_percent > 100.0) {
          return Status::Invalid("ID.window_percent must be in (0, 100], got ",
                                 window_percent);
        }
        return std::unique_ptr<Measure>(new IntervalDisclosure(window_percent));
      });
}

}  // namespace metrics
}  // namespace evocat
