#include "metrics/rsrl.h"

#include "metrics/registry.h"

#include <cmath>
#include <cstdint>

#include "common/parallel.h"
#include "data/stats.h"
#include "metrics/delta.h"
#include "metrics/distance.h"
#include "metrics/plane.h"

namespace evocat {
namespace metrics {

namespace {

class BoundRsrl : public BoundMeasure {
 public:
  BoundRsrl(const Dataset& original, const std::vector<int>& attrs,
            double assumed_p_percent)
      : original_(&original), attrs_(attrs), tables_(original, attrs) {
    window_ = assumed_p_percent / 100.0 *
              static_cast<double>(original.num_rows());
    for (int attr : attrs_) {
      original_midranks_.push_back(CategoryMidranks(original, attr));
    }
    clusters_ = PatternIndex::Build(original, attrs);
  }

  double Compute(const Dataset& masked) const override {
    int64_t n = original_->num_rows();
    size_t num_attrs = attrs_.size();

    // Masked-side mid-ranks (depend on the masked marginals).
    std::vector<std::vector<double>> masked_midranks;
    masked_midranks.reserve(num_attrs);
    for (int attr : attrs_) {
      masked_midranks.push_back(CategoryMidranks(masked, attr));
    }

    std::vector<LinkageRowBest> rows(static_cast<size_t>(n));
    ParallelFor(0, n, [&](int64_t i) {
      LinkageRowBest row;
      for (int64_t j = 0; j < n; ++j) {
        // Candidate filter: every attribute's masked rank must lie within
        // the assumed displacement window of the original rank.
        bool candidate = true;
        for (size_t k = 0; k < num_attrs; ++k) {
          double rank_orig =
              original_midranks_[k][static_cast<size_t>(original_->Code(i, attrs_[k]))];
          double rank_mask =
              masked_midranks[k][static_cast<size_t>(masked.Code(j, attrs_[k]))];
          if (std::fabs(rank_orig - rank_mask) > window_) {
            candidate = false;
            break;
          }
        }
        if (!candidate) continue;
        double d = tables_.RecordDistance(*original_, i, masked, j);
        LinkageAdd(&row, d, j == i);
      }
      rows[static_cast<size_t>(i)] = row;
    });
    return LinkageCreditScore(rows);
  }

  std::unique_ptr<MeasureState> BindState(const Dataset& masked) const override;

  const Dataset& original() const { return *original_; }
  const std::vector<int>& attrs() const { return attrs_; }
  const DistanceTables& tables() const { return tables_; }
  const std::vector<double>& original_midranks(size_t k) const {
    return original_midranks_[k];
  }
  double window() const { return window_; }
  const PatternIndex& clusters() const { return clusters_; }

 private:
  const Dataset* original_;
  std::vector<int> attrs_;
  DistanceTables tables_;
  std::vector<std::vector<double>> original_midranks_;
  double window_ = 0.0;
  PatternIndex clusters_;
};

/// Cluster-level RSRL state. RSRL's attack state has two masked-side
/// dependencies: record distances (row-scoped, like DBRL) and the
/// per-attribute candidate windows, which hinge on masked mid-ranks and
/// therefore on the masked category counts. A delta (a) perturbs d(., j)
/// for the changed rows j, and (b) may flip the candidate status of whole
/// (original-category, masked-category) blocks when a mid-rank crosses the
/// window boundary.
///
/// Like ClusteredDbrlState it keeps one `LinkageRowBest` per *original
/// pattern cluster* plus each row's self distance, and both effects
/// collapse to pattern granularity: the changed-row fold removes/adds whole
/// tuples per cluster under the old/new candidate matrices, and a flip
/// block (o, m) at attribute k toggles whole masked groups against whole
/// original clusters — folded with multiplicity (group size minus the
/// changed rows already handled row-wise). Clusters whose best-match
/// support empties are rescanned. Per delta the work is O(C·changed +
/// flips·C_o·G_m + n) instead of a per-row layout's O(n·changed +
/// flips·n_o·n_m + n·A). Cost model: like DBRL plus the flip-block sweeps
/// and candidate-matrix refreshes, so the rebuild point sits a bit earlier
/// — fraction 0.12 (an n²/8 pair-coverage guard also rebuilds when the
/// mid-rank flips alone get rebuild-sized).
class ClusteredRsrlState : public MeasureState {
 public:
  ClusteredRsrlState(const BoundRsrl* bound, const Dataset& masked)
      : MeasureState(/*default_rebuild_fraction=*/0.12),
        bound_(bound),
        attr_pos_(AttrPositions(bound->attrs(), masked.num_attributes())) {
    const auto& attrs = bound_->attrs();
    const PatternIndex& clusters = bound_->clusters();
    orig_counts_.resize(attrs.size());
    clusters_by_code_.resize(attrs.size());
    for (size_t k = 0; k < attrs.size(); ++k) {
      orig_counts_[k] = CategoryCounts(bound_->original(), attrs[k]);
      clusters_by_code_[k].resize(static_cast<size_t>(Cardinality(k)));
    }
    for (int64_t c = 0; c < clusters.num_clusters(); ++c) {
      const int32_t* codes = clusters.codes(c);
      for (size_t k = 0; k < attrs.size(); ++k) {
        clusters_by_code_[k][static_cast<size_t>(codes[k])].push_back(
            static_cast<int32_t>(c));
      }
    }
    InitFrom(masked);
    undo_.counts = core_.counts;
    undo_.midranks = core_.midranks;
    undo_.cand = core_.cand;
    undo_.cluster_best = core_.cluster_best;
    undo_.score = core_.score;
    undo_.self_ok = self_ok_;
  }

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    undo_.counts = core_.counts;
    undo_.midranks = core_.midranks;
    undo_.cand = core_.cand;
    undo_.cluster_best = core_.cluster_best;
    undo_.score = core_.score;
    undo_.self_ok = self_ok_;
    undo_.moves.clear();
    undo_.d_self.clear();
    undo_.rebuilt = false;
    if (segment.num_cells() >= full_rebuild_threshold()) {
      RebuildWithUndo(masked_after);
      return;
    }
    const auto& row_deltas = segment.rows();
    if (row_deltas.empty()) return;

    const auto& attrs = bound_->attrs();
    size_t num_attrs = attrs.size();
    int64_t n = bound_->original().num_rows();

    // 1. Fold the deltas into the masked marginals. The group moves happen
    //    below, after the pair-coverage guard has committed to the
    //    incremental path (so a guard rebuild backs up untouched groups).
    std::vector<uint8_t> attr_changed(num_attrs, 0);
    for (const RowDelta& rd : row_deltas) {
      for (const auto& cell : rd.cells) {
        int pos = attr_pos_[static_cast<size_t>(cell.attr)];
        if (pos < 0 || cell.old_code == cell.new_code) continue;
        auto k = static_cast<size_t>(pos);
        core_.counts[k][static_cast<size_t>(cell.old_code)] -= 1;
        core_.counts[k][static_cast<size_t>(cell.new_code)] += 1;
        attr_changed[k] = 1;
      }
    }

    // 2. Re-derive mid-ranks and candidate matrices for the touched
    //    attributes, recording flips. The pair estimate multiplies the
    //    original and masked marginals (rows holding each code on either
    //    side), so the rebuild decision depends only on the counts.
    std::vector<std::vector<uint8_t>> flipped(num_attrs);
    std::vector<std::vector<std::pair<int32_t, int32_t>>> flips(num_attrs);
    int64_t affected_pairs = 0;
    for (size_t k = 0; k < num_attrs; ++k) {
      if (!attr_changed[k]) continue;
      core_.midranks[k] = MidranksFromCounts(core_.counts[k]);
      auto card = static_cast<size_t>(Cardinality(k));
      flipped[k].assign(card * card, 0);
      const auto& orig_ranks = bound_->original_midranks(k);
      double window = bound_->window();
      for (size_t o = 0; o < card; ++o) {
        for (size_t m = 0; m < card; ++m) {
          uint8_t now =
              std::fabs(orig_ranks[o] - core_.midranks[k][m]) <= window;
          if (now != core_.cand[k][o * card + m]) {
            flipped[k][o * card + m] = 1;
            flips[k].emplace_back(static_cast<int32_t>(o),
                                  static_cast<int32_t>(m));
            affected_pairs += orig_counts_[k][o] *
                              core_.counts[k][static_cast<size_t>(m)];
            core_.cand[k][o * card + m] = now;
          }
        }
      }
    }
    // Fallback: flip blocks covering a large share of all pairs cost as much
    // as a rebuild, so rebuild (which also refreshes every distance).
    int64_t touched_estimate =
        affected_pairs + n * static_cast<int64_t>(row_deltas.size());
    if (touched_estimate > n * n / 8) {
      RebuildWithUndo(masked_after);
      return;
    }

    // 3. Move changed rows between pattern groups, refresh self distances.
    const PatternIndex& clusters = bound_->clusters();
    const DistanceTables& tables = bound_->tables();
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
      int64_t groups_before = groups_.num_groups();
      groups_.ApplyRow(rd.row, new_codes, &undo_.moves);
      AppendNewGroups(groups_before);
      undo_.d_self.push_back(
          DselfUndo{rd.row, d_self_[static_cast<size_t>(rd.row)]});
      d_self_[static_cast<size_t>(rd.row)] = tables.RecordDistanceCodes(
          clusters.codes(clusters.cluster_of(rd.row)), new_codes);
    }

    // 4. Changed rows, folded per cluster: remove the old tuple under the
    //    old candidate matrices, add the new tuple under the new ones.
    int64_t num_clusters = clusters.num_clusters();
    rescan_.assign(static_cast<size_t>(num_clusters), 0);
    ParallelFor(0, num_clusters, [&](int64_t c) {
      LinkageRowBest& row = core_.cluster_best[static_cast<size_t>(c)];
      uint8_t* needs_rescan = &rescan_[static_cast<size_t>(c)];
      const int32_t* ccodes = clusters.codes(c);
      for (size_t r = 0; r < num_rds; ++r) {
        if (*needs_rescan) break;
        const int32_t* old_codes = rd_codes_.data() + 2 * r * num_attrs;
        const int32_t* new_codes = old_codes + num_attrs;
        bool cand_old = AllCandCodes(undo_.cand, ccodes, old_codes);
        bool cand_new = AllCandCodes(core_.cand, ccodes, new_codes);
        double sum_old = 0.0, sum_new = 0.0;
        for (size_t k = 0; k < num_attrs; ++k) {
          sum_old += tables.At(k, ccodes[k], old_codes[k]);
          sum_new += tables.At(k, ccodes[k], new_codes[k]);
        }
        double denom = static_cast<double>(num_attrs);
        if (cand_old) {
          LinkageRemoveN(&row, sum_old / denom, 1, needs_rescan);
        }
        if (!*needs_rescan && cand_new) {
          LinkageAddN(&row, sum_new / denom, 1);
        }
      }
    });

    // 5. Flip blocks: (cluster, group) pairs whose candidacy toggled through
    //    a mid-rank shift alone. Each group's multiplicity excludes the
    //    changed rows already folded above; a pair covered by several
    //    flipped attributes is handled once, at its first one.
    changed_in_group_.assign(static_cast<size_t>(groups_.num_groups()), 0);
    for (const RowDelta& rd : row_deltas) {
      ++changed_in_group_[static_cast<size_t>(groups_.group_of(rd.row))];
    }
    for (size_t k = 0; k < num_attrs; ++k) {
      for (const auto& [o, m] : flips[k]) {
        for (int32_t g : groups_by_code_[k][static_cast<size_t>(m)]) {
          int64_t eff = groups_.group_size(g) -
                        changed_in_group_[static_cast<size_t>(g)];
          if (eff <= 0) continue;
          const int32_t* gcodes = groups_.codes(g);
          for (int32_t c : clusters_by_code_[k][static_cast<size_t>(o)]) {
            if (rescan_[static_cast<size_t>(c)]) continue;
            const int32_t* ccodes = clusters.codes(c);
            if (!FirstFlippedAttr(flipped, ccodes, gcodes, k)) continue;
            bool cand_old = AllCandCodes(undo_.cand, ccodes, gcodes);
            bool cand_new = AllCandCodes(core_.cand, ccodes, gcodes);
            if (cand_old == cand_new) continue;
            double d = tables.RecordDistanceCodes(ccodes, gcodes);
            LinkageRowBest& row = core_.cluster_best[static_cast<size_t>(c)];
            if (cand_old) {
              LinkageRemoveN(&row, d, eff, &rescan_[static_cast<size_t>(c)]);
            } else {
              LinkageAddN(&row, d, eff);
            }
          }
        }
      }
    }

    // 6. Rescan clusters whose support emptied, against the new world.
    ParallelFor(0, num_clusters, [&](int64_t c) {
      if (rescan_[static_cast<size_t>(c)]) {
        core_.cluster_best[static_cast<size_t>(c)] = ScanCluster(c);
      }
    });

    // 7. Refresh the per-row self-candidacy cache that RefreshScore reads:
    //    a candidate-window flip can toggle any row, while without flips
    //    only the moved rows can change.
    bool any_flips = false;
    for (size_t k = 0; k < num_attrs; ++k) {
      if (!flips[k].empty()) any_flips = true;
    }
    if (any_flips) {
      ParallelFor(0, n, [&](int64_t i) {
        self_ok_[static_cast<size_t>(i)] =
            AllCandCodes(core_.cand, clusters.codes(clusters.cluster_of(i)),
                         groups_.codes(groups_.group_of(i)));
      });
    } else {
      for (const RowDelta& rd : row_deltas) {
        self_ok_[static_cast<size_t>(rd.row)] = AllCandCodes(
            core_.cand, clusters.codes(clusters.cluster_of(rd.row)),
            groups_.codes(groups_.group_of(rd.row)));
      }
    }
    RefreshScore();
  }

  void RevertSegment() override {
    if (undo_.rebuilt) {
      groups_ = undo_.groups;
      d_self_ = undo_.d_self_full;
      RebuildGroupsByCode();
    } else {
      groups_.UndoMoves(undo_.moves);
      for (auto it = undo_.d_self.rbegin(); it != undo_.d_self.rend(); ++it) {
        d_self_[static_cast<size_t>(it->row)] = it->old_value;
      }
      // Groups created during the apply stay at size 0 (ids are never
      // reused), so the by-code lists remain valid as-is.
    }
    core_.counts = undo_.counts;
    core_.midranks = undo_.midranks;
    core_.cand = undo_.cand;
    core_.cluster_best = undo_.cluster_best;
    core_.score = undo_.score;
    self_ok_ = undo_.self_ok;
    undo_.moves.clear();
    undo_.d_self.clear();
    undo_.rebuilt = false;
  }

  double Score() const override { return core_.score; }

 private:
  struct Core {
    std::vector<std::vector<int64_t>> counts;    ///< masked marginals per attr
    std::vector<std::vector<double>> midranks;   ///< masked mid-ranks per attr
    std::vector<std::vector<uint8_t>> cand;      ///< [k][o*card+m] in-window
    std::vector<LinkageRowBest> cluster_best;    ///< per original cluster
    double score = 0.0;
  };

  struct DselfUndo {
    int64_t row;
    double old_value;
  };

  struct Undo {
    std::vector<std::vector<int64_t>> counts;
    std::vector<std::vector<double>> midranks;
    std::vector<std::vector<uint8_t>> cand;
    std::vector<LinkageRowBest> cluster_best;
    double score = 0.0;
    std::vector<MaskedGroups::Move> moves;
    std::vector<DselfUndo> d_self;
    std::vector<uint8_t> self_ok;  ///< full snapshot (one byte per row)
    bool rebuilt = false;
    MaskedGroups groups;              ///< full backup (rebuild only)
    std::vector<double> d_self_full;  ///< full backup (rebuild only)
  };

  int Cardinality(size_t k) const {
    return bound_->original().schema().attribute(bound_->attrs()[k]).cardinality();
  }

  /// Full-recompute fallback that stays revertible.
  void RebuildWithUndo(const Dataset& masked_after) {
    undo_.rebuilt = true;
    undo_.groups = groups_;
    undo_.d_self_full = d_self_;
    InitFrom(masked_after);
  }

  void InitFrom(const Dataset& masked) {
    const auto& attrs = bound_->attrs();
    int64_t n = bound_->original().num_rows();
    core_.counts.resize(attrs.size());
    core_.midranks.resize(attrs.size());
    core_.cand.resize(attrs.size());
    for (size_t k = 0; k < attrs.size(); ++k) {
      core_.counts[k] = CategoryCounts(masked, attrs[k]);
      core_.midranks[k] = MidranksFromCounts(core_.counts[k]);
      auto card = static_cast<size_t>(Cardinality(k));
      core_.cand[k].assign(card * card, 0);
      const auto& orig_ranks = bound_->original_midranks(k);
      for (size_t o = 0; o < card; ++o) {
        for (size_t m = 0; m < card; ++m) {
          core_.cand[k][o * card + m] =
              std::fabs(orig_ranks[o] - core_.midranks[k][m]) <=
              bound_->window();
        }
      }
    }
    groups_ = MaskedGroups::Build(masked, attrs);
    RebuildGroupsByCode();
    const PatternIndex& clusters = bound_->clusters();
    int64_t num_clusters = clusters.num_clusters();
    core_.cluster_best.assign(static_cast<size_t>(num_clusters),
                              LinkageRowBest{});
    ParallelFor(0, num_clusters, [&](int64_t c) {
      core_.cluster_best[static_cast<size_t>(c)] = ScanCluster(c);
    });
    d_self_.assign(static_cast<size_t>(n), 0.0);
    self_ok_.assign(static_cast<size_t>(n), 0);
    ParallelFor(0, n, [&](int64_t i) {
      d_self_[static_cast<size_t>(i)] = bound_->tables().RecordDistanceCodes(
          clusters.codes(clusters.cluster_of(i)),
          groups_.codes(groups_.group_of(i)));
      self_ok_[static_cast<size_t>(i)] =
          AllCandCodes(core_.cand, clusters.codes(clusters.cluster_of(i)),
                       groups_.codes(groups_.group_of(i)));
    });
    RefreshScore();
  }

  /// Fresh candidate-filtered fold of one original cluster against every
  /// masked pattern group, in group id order (cluster-granular ScanRow).
  LinkageRowBest ScanCluster(int64_t c) const {
    const int32_t* ccodes = bound_->clusters().codes(c);
    LinkageRowBest best;
    int64_t num_groups = groups_.num_groups();
    for (int64_t g = 0; g < num_groups; ++g) {
      int64_t size = groups_.group_size(g);
      if (size <= 0) continue;
      const int32_t* gcodes = groups_.codes(g);
      if (!AllCandCodes(core_.cand, ccodes, gcodes)) continue;
      LinkageAddN(&best, bound_->tables().RecordDistanceCodes(ccodes, gcodes),
                  size);
    }
    return best;
  }

  /// Serial per-row credit in row order — float-for-float the same sum as
  /// `LinkageCreditScore` over the equivalent per-row records. The self link
  /// additionally requires the row's own pair to sit inside the candidate
  /// windows (the cached self_ok_ bit), exactly like Compute's candidate
  /// filter on j == i.
  void RefreshScore() {
    const PatternIndex& clusters = bound_->clusters();
    int64_t n = bound_->original().num_rows();
    double credit = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      auto c = static_cast<size_t>(clusters.cluster_of(i));
      const LinkageRowBest& row = core_.cluster_best[c];
      if (row.count <= 0) continue;
      if (!self_ok_[static_cast<size_t>(i)]) continue;
      if (d_self_[static_cast<size_t>(i)] <= row.best + kLinkageEps) {
        credit += 1.0 / static_cast<double>(row.count);
      }
    }
    core_.score = n == 0 ? 0.0 : 100.0 * credit / static_cast<double>(n);
  }

  bool AllCandCodes(const std::vector<std::vector<uint8_t>>& cand,
                    const int32_t* o_codes, const int32_t* m_codes) const {
    for (size_t k = 0; k < cand.size(); ++k) {
      auto card = static_cast<size_t>(Cardinality(k));
      if (!cand[k][static_cast<size_t>(o_codes[k]) * card +
                   static_cast<size_t>(m_codes[k])]) {
        return false;
      }
    }
    return true;
  }

  /// True when `k` is the first attribute whose flip block covers the
  /// (cluster, group) code pair.
  bool FirstFlippedAttr(const std::vector<std::vector<uint8_t>>& flipped,
                        const int32_t* o_codes, const int32_t* m_codes,
                        size_t k) const {
    for (size_t k2 = 0; k2 < k; ++k2) {
      if (flipped[k2].empty()) continue;
      auto card = static_cast<size_t>(Cardinality(k2));
      if (flipped[k2][static_cast<size_t>(o_codes[k2]) * card +
                      static_cast<size_t>(m_codes[k2])]) {
        return false;
      }
    }
    return true;
  }

  /// Indexes groups created since `from` into the by-code lists (append-only,
  /// mirroring the never-deleted group ids).
  void AppendNewGroups(int64_t from) {
    for (int64_t g = from; g < groups_.num_groups(); ++g) {
      const int32_t* gcodes = groups_.codes(g);
      for (size_t k = 0; k < groups_.num_attrs(); ++k) {
        groups_by_code_[k][static_cast<size_t>(gcodes[k])].push_back(
            static_cast<int32_t>(g));
      }
    }
  }

  void RebuildGroupsByCode() {
    const auto& attrs = bound_->attrs();
    groups_by_code_.assign(attrs.size(), {});
    for (size_t k = 0; k < attrs.size(); ++k) {
      groups_by_code_[k].resize(static_cast<size_t>(Cardinality(k)));
    }
    AppendNewGroups(0);
  }

  const BoundRsrl* bound_;
  std::vector<int> attr_pos_;
  std::vector<std::vector<int64_t>> orig_counts_;  ///< original marginals
  /// Static: clusters holding original code o at attribute k.
  std::vector<std::vector<std::vector<int32_t>>> clusters_by_code_;
  /// Dynamic, append-only: groups holding masked code m at attribute k.
  std::vector<std::vector<std::vector<int32_t>>> groups_by_code_;
  MaskedGroups groups_;
  std::vector<double> d_self_;  ///< d(cluster(i), group(i))
  /// Cached AllCandCodes(cand, cluster(i), group(i)) per row — the credit
  /// loop's hot read, kept current across applies instead of re-derived.
  std::vector<uint8_t> self_ok_;
  Core core_;
  Undo undo_;
  // Per-apply scratch, reused across generations.
  std::vector<uint8_t> rescan_;
  std::vector<int64_t> changed_in_group_;
  std::vector<int32_t> rd_codes_;
};

std::unique_ptr<MeasureState> BoundRsrl::BindState(const Dataset& masked) const {
  return std::make_unique<ClusteredRsrlState>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> RankSwappingRecordLinkage::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  if (assumed_p_percent_ <= 0.0 || assumed_p_percent_ > 100.0) {
    return Status::Invalid("RSRL assumed p must be in (0, 100], got ",
                           assumed_p_percent_);
  }
  return std::unique_ptr<BoundMeasure>(
      new BoundRsrl(original, attrs, assumed_p_percent_));
}

void RegisterRsrlMeasure(MeasureRegistry* registry) {
  registry->Register(
      "RSRL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("RSRL", params);
        double assumed_p_percent = reader.GetDouble("assumed_p_percent", 15.0);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(
            new RankSwappingRecordLinkage(assumed_p_percent));
      });
}

}  // namespace metrics
}  // namespace evocat
