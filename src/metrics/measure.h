/// \file measure.h
/// \brief Interfaces for information-loss and disclosure-risk measures.
///
/// Every measure compares a masked file against the original it was derived
/// from and returns a value on a 0..100 scale (0 = no loss / no risk,
/// 100 = maximal). Because the GA evaluates thousands of masked files against
/// the *same* original, measures follow a bind-then-evaluate protocol:
/// `Measure::Bind(original, attrs)` precomputes all original-side state
/// (contingency tables, rank maps, distance tables) into a `BoundMeasure`
/// whose `Compute(masked)` is the hot path.
///
/// On top of that, the GA's operators change very little per generation — a
/// mutation rewrites exactly one cell, a crossover swaps one gene segment —
/// so `BoundMeasure::BindState(masked)` opens a second, *incremental*
/// protocol: a `MeasureState` carries per-masked-file sufficient statistics
/// (contingency cells, per-row best-match records, agreement-pattern
/// histograms) and re-scores after a `SegmentDelta` batch in time
/// proportional to the segment instead of the file.

#ifndef EVOCAT_METRICS_MEASURE_H_
#define EVOCAT_METRICS_MEASURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace evocat {
namespace metrics {

/// \brief Which side of the privacy trade-off a measure quantifies.
enum class MeasureKind { kInformationLoss, kDisclosureRisk };

/// \brief One changed cell of a masked file: the GA operators' unit of work.
///
/// `old_code` is the value before the whole delta batch was applied and
/// `new_code` the value after; a batch contains at most one delta per cell.
struct CellDelta {
  int64_t row = 0;
  int attr = 0;  ///< schema attribute index
  int32_t old_code = 0;
  int32_t new_code = 0;
};

/// \brief Lightweight view over one row's slice of a segment's flat cell
/// array (contiguous, owned by the `SegmentDelta`). Iterates `CellDelta`s,
/// whose `.row` simply repeats the group's row.
struct CellSpan {
  const CellDelta* data = nullptr;
  size_t count = 0;

  const CellDelta* begin() const { return data; }
  const CellDelta* end() const { return data + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  const CellDelta& operator[](size_t i) const { return data[i]; }
};

/// \brief All changed cells of one masked record.
///
/// The measures reason about deltas per *masked record*: a crossover segment
/// that swaps several attributes of the same row must be treated as one row
/// transition (old row image -> new row image), otherwise contingency keys
/// and record distances would be computed against half-updated rows.
///
/// A `RowDelta` is a non-owning view into its `SegmentDelta`'s flat cell
/// storage; it stays valid while the segment does and no more cells are
/// appended.
struct RowDelta {
  int64_t row = 0;

  /// Changed cells of this row (a handful at most: one per protected attr).
  CellSpan cells;

  /// \brief The pre-batch code of (row, attr): the recorded old value for a
  /// changed cell, the current value otherwise.
  int32_t OldCode(const Dataset& masked_after, int attr) const {
    for (const CellDelta& cell : cells) {
      if (cell.attr == attr) return cell.old_code;
    }
    return masked_after.Code(row, attr);
  }

  /// \brief Whether `attr` changed in this row.
  bool Touches(int attr) const {
    for (const CellDelta& cell : cells) {
      if (cell.attr == attr) return true;
    }
    return false;
  }
};

/// \brief A segment batch: the flat cell deltas of one operator application
/// together with their by-row grouping, computed once and shared by every
/// measure state (each used to re-group the same batch privately).
///
/// The GA's operators emit cells in flat gene order (row-major), so
/// `Append` extends the current row group in O(1); `FromCells` covers
/// arbitrary batches. Invariants: at most one cell per (row, attr); every
/// cell appears in exactly one row group; `old_code` is the pre-batch value.
///
/// Storage is a single flat `CellDelta` array plus {row, begin, count} group
/// records. `rows()` is a by-value view over the group records that builds
/// each `RowDelta` when it is read, so a segment is immutable once built and
/// every measure can read it concurrently.
class SegmentDelta {
 public:
  /// \brief Row-transition view: `size()`, `operator[]` and iteration, each
  /// `RowDelta` made on read from the segment's flat storage. Holds no state
  /// of its own; valid while the segment is alive and unchanged.
  class RowView {
   public:
    class Iterator {
     public:
      Iterator(const SegmentDelta* segment, size_t index)
          : segment_(segment), index_(index) {}
      RowDelta operator*() const { return segment_->RowAt(index_); }
      Iterator& operator++() {
        ++index_;
        return *this;
      }
      bool operator==(const Iterator& other) const {
        return index_ == other.index_;
      }
      bool operator!=(const Iterator& other) const {
        return index_ != other.index_;
      }

     private:
      const SegmentDelta* segment_;
      size_t index_;
    };

    explicit RowView(const SegmentDelta& segment) : segment_(&segment) {}

    size_t size() const { return segment_->groups_.size(); }
    bool empty() const { return segment_->groups_.empty(); }
    RowDelta operator[](size_t i) const { return segment_->RowAt(i); }
    Iterator begin() const { return Iterator(segment_, 0); }
    Iterator end() const { return Iterator(segment_, size()); }

   private:
    const SegmentDelta* segment_;
  };

  SegmentDelta() = default;

  /// \brief Groups an arbitrary batch by row (first-appearance order). Cells
  /// of one row end up contiguous in `cells()` regardless of input order.
  static SegmentDelta FromCells(const std::vector<CellDelta>& cells);

  /// \brief Appends one cell. Cells of the same row must arrive
  /// consecutively (flat gene order) — a row seen earlier must not reappear.
  void Append(int64_t row, int attr, int32_t old_code, int32_t new_code);

  /// \brief Pre-sizes the flat storage (operators know their segment size).
  void Reserve(size_t num_cells, size_t num_rows) {
    cells_.reserve(num_cells);
    groups_.reserve(num_rows);
  }

  void clear() {
    cells_.clear();
    groups_.clear();
  }

  bool empty() const { return cells_.empty(); }
  int64_t num_cells() const { return static_cast<int64_t>(cells_.size()); }

  /// \brief Flat per-cell view (cell-scoped measures: DBIL, EBIL, ID).
  const std::vector<CellDelta>& cells() const { return cells_; }

  /// \brief Row-transition view (record-scoped measures: CTBIL, linkage).
  /// The returned RowDeltas point into this segment's flat storage.
  RowView rows() const { return RowView(*this); }

 private:
  struct Group {
    int64_t row = 0;
    int64_t begin = 0;
    int64_t count = 0;
  };

  RowDelta RowAt(size_t i) const {
    const Group& group = groups_[i];
    return RowDelta{group.row,
                    CellSpan{cells_.data() + group.begin,
                             static_cast<size_t>(group.count)}};
  }

  std::vector<CellDelta> cells_;
  std::vector<Group> groups_;
};

/// \brief Incremental evaluation state for one masked file under one measure.
///
/// Obtained from `BoundMeasure::BindState(masked)`. The caller mutates its
/// copy of the masked file, then reports the change:
///
/// ```
/// state->ApplySegment(masked_after, segment);  // O(segment)-ish update
/// double score = state->Score();               // cached, cheap
/// state->RevertSegment();                      // undo the last apply
/// ```
///
/// Contract for `ApplySegment`:
///  - `masked_after` already reflects every delta (post-image);
///  - each cell's `old_code` is the value before the batch; at most one
///    delta per (row, attr) cell; cells outside the bound attribute set are
///    ignored;
///  - scores agree with a from-scratch `Compute(masked_after)` to within
///    1e-9 (integer-exact for the counting measures);
///  - when the batch reaches `full_rebuild_threshold()` cells the state
///    recomputes from scratch automatically (still revertible). The
///    threshold comes from a per-measure cost model: each state declares the
///    fraction of the protected cells at which a rebuild becomes cheaper
///    than its incremental update (`rebuild_fraction`, overridable per
///    measure through `FitnessEvaluator::Options` / the JobSpec `fitness`
///    block).
///
/// `RevertSegment` undoes exactly one `ApplySegment` (one level deep).
/// States never retain a pointer to the masked dataset — every call passes
/// the current file — so they survive the copy-on-write dataset reshuffling
/// the engine performs when offspring replace parents.
class MeasureState {
 public:
  virtual ~MeasureState() = default;

  /// \brief Folds a segment batch into the state (see contract).
  virtual void ApplySegment(const Dataset& masked_after,
                            const SegmentDelta& segment) = 0;

  /// \brief Undoes the most recent ApplySegment (single level).
  virtual void RevertSegment() = 0;

  /// \brief Current score in [0, 100]; cached, O(1).
  virtual double Score() const = 0;

  /// \brief Convenience wrapper: groups `deltas` and applies them as one
  /// segment. Prefer `ApplySegment` on hot paths — the grouping is then
  /// computed once and shared across measures.
  void ApplyDelta(const Dataset& masked_after,
                  const std::vector<CellDelta>& deltas) {
    ApplySegment(masked_after, SegmentDelta::FromCells(deltas));
  }

  /// \brief Alias of RevertSegment (pairs with ApplyDelta).
  void Revert() { RevertSegment(); }

  /// \brief Fraction of the protected cells at which this state prefers a
  /// full rebuild over its incremental update (the measure's cost model;
  /// ~1.0 for the O(cell) counting measures, ~0.5 for the linkage attacks).
  double rebuild_fraction() const { return rebuild_fraction_; }
  void set_rebuild_fraction(double fraction) {
    rebuild_fraction_ = fraction < 0.0 ? 0.0 : fraction;
  }

  /// \brief Total protected cells of the bound file (rows x bound attrs);
  /// the base the rebuild fraction scales against.
  void set_total_protected_cells(int64_t cells) {
    total_protected_cells_ = cells < 0 ? 0 : cells;
  }

  /// \brief Absolute override of the rebuild threshold in cells (tests and
  /// benches; 0 restores the fraction-derived threshold).
  void set_full_rebuild_threshold(int64_t cells) {
    explicit_threshold_cells_ = cells < 0 ? 0 : cells;
  }

  /// \brief Segment size (in cells) at which ApplySegment recomputes in
  /// full: the explicit override when set, otherwise
  /// `rebuild_fraction * total_protected_cells` (never below 1), or never
  /// when no cell total has been declared.
  int64_t full_rebuild_threshold() const {
    if (explicit_threshold_cells_ > 0) return explicit_threshold_cells_;
    if (total_protected_cells_ <= 0) return INT64_MAX;
    auto cells = static_cast<int64_t>(
        rebuild_fraction_ * static_cast<double>(total_protected_cells_));
    return cells < 1 ? 1 : cells;
  }

 protected:
  /// \param default_rebuild_fraction the measure's own cost-model default.
  explicit MeasureState(double default_rebuild_fraction = 1.0)
      : rebuild_fraction_(default_rebuild_fraction) {}

 private:
  double rebuild_fraction_;
  int64_t total_protected_cells_ = 0;
  int64_t explicit_threshold_cells_ = 0;
};

/// \brief A measure bound to one original dataset and attribute set.
class BoundMeasure {
 public:
  virtual ~BoundMeasure() = default;

  /// \brief Evaluates the masked file; returns a value in [0, 100].
  ///
  /// `masked` must share the original's schema and row count (checked by
  /// `Measure::Compute`; callers on the hot path are trusted).
  virtual double Compute(const Dataset& masked) const = 0;

  /// \brief Opens incremental evaluation for `masked`.
  ///
  /// The default implementation returns a correct fallback state that runs a
  /// full `Compute` on every ApplySegment; measures override it with true
  /// segment-delta updates. The bound measure must outlive the state.
  virtual std::unique_ptr<MeasureState> BindState(const Dataset& masked) const;
};

/// \brief Factory/descriptor for one measure.
class Measure {
 public:
  virtual ~Measure() = default;

  /// \brief Short identifier, e.g. "CTBIL".
  virtual std::string Name() const = 0;

  /// \brief Information loss or disclosure risk.
  virtual MeasureKind Kind() const = 0;

  /// \brief Precomputes original-side state for repeated evaluation.
  virtual Result<std::unique_ptr<BoundMeasure>> Bind(
      const Dataset& original, const std::vector<int>& attrs) const = 0;

  /// \brief One-shot convenience: validate, bind and evaluate.
  Result<double> Compute(const Dataset& original, const Dataset& masked,
                         const std::vector<int>& attrs) const;
};

/// \brief Validates that `masked` is comparable to `original` over `attrs`.
Status ValidateComparable(const Dataset& original, const Dataset& masked,
                          const std::vector<int>& attrs);

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_MEASURE_H_
