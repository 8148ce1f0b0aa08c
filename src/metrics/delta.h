/// \file delta.h
/// \brief Shared plumbing for incremental measure states.
///
/// The segment-batch types themselves (`CellDelta`, `RowDelta`,
/// `SegmentDelta`) live in measure.h with the `MeasureState` contract; this
/// header carries the helpers the concrete states share: attribute-position
/// maps and the record-linkage support-set bookkeeping used by DBRL/RSRL.

#ifndef EVOCAT_METRICS_DELTA_H_
#define EVOCAT_METRICS_DELTA_H_

#include <cstdint>
#include <vector>

#include "metrics/measure.h"

namespace evocat {
namespace metrics {

/// \brief Maps schema attribute index -> position in `attrs` (-1 when the
/// attribute is not bound). Sized to `num_schema_attrs`.
std::vector<int> AttrPositions(const std::vector<int>& attrs,
                               int num_schema_attrs);

/// \brief Tie epsilon of the record-linkage attacks' best-match comparison
/// (matches the full Compute scans of DBRL/RSRL).
inline constexpr double kLinkageEps = 1e-12;

/// \brief Linkage record of one original record (the DBRL/RSRL Compute
/// scans) or one original pattern cluster (their states): the best
/// (minimum) distance over the masked records considered, the size of its
/// tie set, and — per record only — whether the true match j == i is in it.
struct LinkageRowBest {
  double best = 1e100;
  int32_t count = 0;
  uint8_t self = 0;
};

/// \brief Folds a masked record's distance into the support set (mirrors the
/// full scan's tie handling).
inline void LinkageAdd(LinkageRowBest* row, double d, bool is_self) {
  if (d < row->best - kLinkageEps) {
    row->best = d;
    row->count = 1;
    row->self = is_self;
  } else if (d <= row->best + kLinkageEps) {
    ++row->count;
    if (is_self) row->self = 1;
  }
}

/// \brief `LinkageAdd` with multiplicity: folds `count` masked records at
/// the same distance in one step (a pattern group). The self flag is left
/// untouched — cluster-level folds reconstruct it from the self distance.
/// Equal to `count` successive LinkageAdd calls whenever distances are
/// either exact ties or separated by more than the epsilon (the generic
/// case for table-lookup distances).
inline void LinkageAddN(LinkageRowBest* row, double d, int64_t count) {
  if (d < row->best - kLinkageEps) {
    row->best = d;
    row->count = static_cast<int32_t>(count);
    row->self = 0;
  } else if (d <= row->best + kLinkageEps) {
    row->count += static_cast<int32_t>(count);
  }
}

/// \brief Removes `count` masked records at distance `d` from the support
/// set in one step (a changed row, or a pattern group leaving the candidate
/// set); flags `rescan` when the support empties (the record needs a fresh
/// scan). Like `LinkageAddN` the self flag is left untouched — cluster-level
/// callers reconstruct it from the self distance.
inline void LinkageRemoveN(LinkageRowBest* row, double d, int64_t count,
                           uint8_t* rescan) {
  if (d <= row->best + kLinkageEps && d >= row->best - kLinkageEps) {
    row->count -= static_cast<int32_t>(count);
    if (row->count <= 0) *rescan = 1;
  }
}

/// \brief The linkage measures' credit score: each correctly self-linked
/// record contributes 1/|tie set|, scaled to 0..100.
double LinkageCreditScore(const std::vector<LinkageRowBest>& rows);

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_DELTA_H_
