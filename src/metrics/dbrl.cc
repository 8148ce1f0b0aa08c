#include "metrics/dbrl.h"

#include "metrics/registry.h"

#include "common/parallel.h"
#include "metrics/delta.h"
#include "metrics/distance.h"
#include "metrics/plane.h"

namespace evocat {
namespace metrics {

namespace {

class BoundDbrl : public BoundMeasure {
 public:
  BoundDbrl(const Dataset& original, const std::vector<int>& attrs)
      : original_(&original), tables_(original, attrs) {
    // Pattern clustering of the original rows: every state build (and the
    // clustered delta state) folds distances per (cluster, group) pair
    // instead of per row pair — O(C*G*A) instead of O(n^2 * A).
    clusters_ = PatternIndex::Build(original, attrs);
  }

  double Compute(const Dataset& masked) const override {
    int64_t n = original_->num_rows();
    std::vector<LinkageRowBest> rows(static_cast<size_t>(n));
    ParallelFor(0, n, [&](int64_t i) {
      LinkageRowBest& row = rows[static_cast<size_t>(i)];
      for (int64_t j = 0; j < n; ++j) {
        LinkageAdd(&row, tables_.RecordDistance(*original_, i, masked, j),
                   j == i);
      }
    });
    return LinkageCreditScore(rows);
  }

  std::unique_ptr<MeasureState> BindState(const Dataset& masked) const override;

  /// \brief Fresh fold of one original cluster against every masked pattern
  /// group (in group id order). Agrees with the per-row scan whenever
  /// distances are exact ties or separated by more than the linkage epsilon.
  LinkageRowBest ScanCluster(int64_t cluster, const MaskedGroups& groups) const {
    LinkageRowBest row;
    const int32_t* cluster_codes = clusters_.codes(cluster);
    int64_t num_groups = groups.num_groups();
    for (int64_t g = 0; g < num_groups; ++g) {
      int64_t size = groups.group_size(g);
      if (size <= 0) continue;
      LinkageAddN(&row,
                  tables_.RecordDistanceCodes(cluster_codes, groups.codes(g)),
                  size);
    }
    return row;
  }

  const Dataset& original() const { return *original_; }
  const DistanceTables& tables() const { return tables_; }
  const PatternIndex& clusters() const { return clusters_; }

 private:
  const Dataset* original_;
  DistanceTables tables_;
  PatternIndex clusters_;
};

/// Cluster-level DBRL state: instead of n per-row linkage records it keeps
/// one `LinkageRowBest` per *original cluster* plus each row's self
/// distance. Rows of a cluster share their whole distance profile, so the
/// cluster record is exactly the per-row record of every member; scoring
/// walks rows serially in the same order (and with the same float ops) as
/// `LinkageCreditScore`.
///
/// A changed masked record j only perturbs the distances d(., j), so each
/// cluster's record updates in O(A) per changed row — O(C*A) per row, not
/// O(n*A) — and only clusters whose entire best-match support disappears
/// are rescanned in full (O(G*A) each). Cost model: the support maintenance
/// costs O(C · changed_rows · A) plus rescans whose frequency grows quickly
/// with the touched-row share (every cluster whose best match sat in the
/// changed set rescans), so the break-even against a rebuild sits near 15%
/// of the protected cells — fraction 0.15.
///
/// Init is pattern-clustered: rows sharing a code tuple share their entire
/// distance profile, so the O(n^2) all-pairs scan collapses to an O(C*G*A)
/// fold over (original cluster, masked group) pairs.
class ClusteredDbrlState : public MeasureState {
 public:
  ClusteredDbrlState(const BoundDbrl* bound, const Dataset& masked)
      : MeasureState(/*default_rebuild_fraction=*/0.15), bound_(bound) {
    InitFrom(masked);
    undo_.cluster_best = cluster_best_;
    undo_.score = score_;
  }

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    const PatternIndex& clusters = bound_->clusters();
    const DistanceTables& tables = bound_->tables();
    const auto& attrs = tables.attrs();
    size_t num_attrs = attrs.size();
    int64_t num_clusters = clusters.num_clusters();

    undo_.moves.clear();
    undo_.d_self.clear();
    undo_.cluster_best = cluster_best_;
    undo_.score = score_;
    if (segment.num_cells() >= full_rebuild_threshold()) {
      undo_.groups = groups_;
      undo_.d_self_full = d_self_;
      undo_.rebuilt = true;
      InitFrom(masked_after);
      return;
    }
    undo_.rebuilt = false;

    const auto& row_deltas = segment.rows();
    if (row_deltas.empty()) return;

    // Serial pass: record each changed row's old/new code tuples, move it
    // between pattern groups, refresh its self distance. Tuples go into a
    // flat scratch (groups_.codes() may reallocate on group creation, so
    // spans into it must not be retained).
    size_t num_rds = row_deltas.size();
    rd_codes_.assign(2 * num_rds * num_attrs, 0);
    for (size_t r = 0; r < num_rds; ++r) {
      const RowDelta& rd = row_deltas[r];
      int32_t* old_codes = rd_codes_.data() + 2 * r * num_attrs;
      int32_t* new_codes = old_codes + num_attrs;
      for (size_t k = 0; k < num_attrs; ++k) {
        old_codes[k] = rd.OldCode(masked_after, attrs[k]);
        new_codes[k] = masked_after.Code(rd.row, attrs[k]);
      }
      groups_.ApplyRow(rd.row, new_codes, &undo_.moves);
      undo_.d_self.push_back(
          DselfUndo{rd.row, d_self_[static_cast<size_t>(rd.row)]});
      d_self_[static_cast<size_t>(rd.row)] = tables.RecordDistanceCodes(
          clusters.codes(clusters.cluster_of(rd.row)), new_codes);
    }

    // Per-cluster fold: remove each changed row's old distance, add its new
    // one; a cluster whose support empties stops here and is rescanned.
    rescan_.assign(static_cast<size_t>(num_clusters), 0);
    ParallelFor(0, num_clusters, [&](int64_t c) {
      LinkageRowBest& row = cluster_best_[static_cast<size_t>(c)];
      uint8_t* needs_rescan = &rescan_[static_cast<size_t>(c)];
      const int32_t* cluster_codes = clusters.codes(c);
      for (size_t r = 0; r < num_rds; ++r) {
        if (*needs_rescan) break;
        const int32_t* old_codes = rd_codes_.data() + 2 * r * num_attrs;
        const int32_t* new_codes = old_codes + num_attrs;
        double sum_old = 0.0, sum_new = 0.0;
        for (size_t k = 0; k < num_attrs; ++k) {
          sum_old += tables.At(k, cluster_codes[k], old_codes[k]);
          sum_new += tables.At(k, cluster_codes[k], new_codes[k]);
        }
        double denom = static_cast<double>(num_attrs);
        LinkageRemoveN(&row, sum_old / denom, 1, needs_rescan);
        if (!*needs_rescan) LinkageAddN(&row, sum_new / denom, 1);
      }
    });
    ParallelFor(0, num_clusters, [&](int64_t c) {
      if (rescan_[static_cast<size_t>(c)]) {
        cluster_best_[static_cast<size_t>(c)] =
            bound_->ScanCluster(c, groups_);
      }
    });
    RefreshScore();
  }

  void RevertSegment() override {
    if (undo_.rebuilt) {
      groups_ = undo_.groups;
      d_self_ = undo_.d_self_full;
    } else {
      groups_.UndoMoves(undo_.moves);
      for (auto it = undo_.d_self.rbegin(); it != undo_.d_self.rend(); ++it) {
        d_self_[static_cast<size_t>(it->row)] = it->old_value;
      }
    }
    cluster_best_ = undo_.cluster_best;
    score_ = undo_.score;
    undo_.moves.clear();
    undo_.d_self.clear();
    undo_.rebuilt = false;
  }

  double Score() const override { return score_; }

 private:
  struct DselfUndo {
    int64_t row;
    double old_value;
  };

  void InitFrom(const Dataset& masked) {
    const PatternIndex& clusters = bound_->clusters();
    const DistanceTables& tables = bound_->tables();
    int64_t n = bound_->original().num_rows();
    groups_ = MaskedGroups::Build(masked, tables.attrs());
    int64_t num_clusters = clusters.num_clusters();
    cluster_best_.assign(static_cast<size_t>(num_clusters), LinkageRowBest{});
    ParallelFor(0, num_clusters, [&](int64_t c) {
      cluster_best_[static_cast<size_t>(c)] = bound_->ScanCluster(c, groups_);
    });
    d_self_.assign(static_cast<size_t>(n), 0.0);
    ParallelFor(0, n, [&](int64_t i) {
      d_self_[static_cast<size_t>(i)] = tables.RecordDistanceCodes(
          clusters.codes(clusters.cluster_of(i)),
          groups_.codes(groups_.group_of(i)));
    });
    RefreshScore();
  }

  /// Serial per-row credit in row order — float-for-float the same sum as
  /// `LinkageCreditScore` over the equivalent per-row records.
  void RefreshScore() {
    const PatternIndex& clusters = bound_->clusters();
    int64_t n = bound_->original().num_rows();
    double credit = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const LinkageRowBest& row =
          cluster_best_[static_cast<size_t>(clusters.cluster_of(i))];
      if (row.count > 0 &&
          d_self_[static_cast<size_t>(i)] <= row.best + kLinkageEps) {
        credit += 1.0 / static_cast<double>(row.count);
      }
    }
    score_ = n == 0 ? 0.0 : 100.0 * credit / static_cast<double>(n);
  }

  struct Undo {
    std::vector<LinkageRowBest> cluster_best;
    std::vector<MaskedGroups::Move> moves;
    std::vector<DselfUndo> d_self;
    double score = 0.0;
    bool rebuilt = false;
    MaskedGroups groups;          ///< full backup (rebuild only)
    std::vector<double> d_self_full;  ///< full backup (rebuild only)
  };

  const BoundDbrl* bound_;
  MaskedGroups groups_;
  std::vector<LinkageRowBest> cluster_best_;  ///< per original cluster
  std::vector<double> d_self_;                ///< d(cluster(i), group(i))
  double score_ = 0.0;
  Undo undo_;
  // Per-apply scratch, reused across generations.
  std::vector<uint8_t> rescan_;
  std::vector<int32_t> rd_codes_;
};

std::unique_ptr<MeasureState> BoundDbrl::BindState(const Dataset& masked) const {
  return std::make_unique<ClusteredDbrlState>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> DistanceBasedRecordLinkage::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  return std::unique_ptr<BoundMeasure>(new BoundDbrl(original, attrs));
}

void RegisterDbrlMeasure(MeasureRegistry* registry) {
  registry->Register(
      "DBRL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("DBRL", params);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(new DistanceBasedRecordLinkage());
      });
}

}  // namespace metrics
}  // namespace evocat
