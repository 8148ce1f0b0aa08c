// The two distance-linkage attacks, DBRL and RSRL, and the one incremental
// state both bind. RSRL is DBRL's attack limited to the masked records
// whose mid-ranks fall inside a window, so the state is a class template
// over that filter: DBRL instantiates it without one.

#include "metrics/dbrl.h"
#include "metrics/rsrl.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "common/parallel.h"
#include "data/stats.h"
#include "metrics/delta.h"
#include "metrics/distance.h"
#include "metrics/plane.h"
#include "metrics/registry.h"

namespace evocat {
namespace metrics {

namespace {

/// Self distance of a row whose own pair is outside the rank window: it can
/// never be within the linkage epsilon of a best match, so the row earns no
/// credit.
constexpr double kUnlinkable = std::numeric_limits<double>::infinity();

/// Original-side data of both attacks: the value-distance tables and the
/// pattern clusters of the original rows. Rows sharing a code tuple share
/// their whole distance profile, so the states fold per (cluster, masked
/// group) pair, O(C·G·A), instead of per row pair, O(n²·A).
class BoundLinkage : public BoundMeasure {
 public:
  BoundLinkage(const Dataset& original, const std::vector<int>& attrs)
      : original_(&original),
        tables_(original, attrs),
        clusters_(PatternIndex::Build(original, attrs)) {}

  const Dataset& original() const { return *original_; }
  const DistanceTables& tables() const { return tables_; }
  const PatternIndex& clusters() const { return clusters_; }

 protected:
  const Dataset* original_;
  DistanceTables tables_;
  PatternIndex clusters_;
};

class BoundDbrl : public BoundLinkage {
 public:
  using BoundLinkage::BoundLinkage;

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
};

class BoundRsrl : public BoundLinkage {
 public:
  BoundRsrl(const Dataset& original, const std::vector<int>& attrs,
            double assumed_p_percent)
      : BoundLinkage(original, attrs),
        window_(assumed_p_percent / 100.0 *
                static_cast<double>(original.num_rows())) {
    for (int attr : attrs) {
      original_midranks_.push_back(CategoryMidranks(original, attr));
    }
  }

  double Compute(const Dataset& masked) const override {
    int64_t n = original_->num_rows();
    const std::vector<int>& attrs = tables_.attrs();
    size_t num_attrs = attrs.size();

    // Masked-side mid-ranks (depend on the masked marginals).
    std::vector<std::vector<double>> masked_midranks;
    masked_midranks.reserve(num_attrs);
    for (int attr : attrs) {
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
              original_midranks_[k][static_cast<size_t>(original_->Code(i, attrs[k]))];
          double rank_mask =
              masked_midranks[k][static_cast<size_t>(masked.Code(j, attrs[k]))];
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

  const std::vector<double>& original_midranks(size_t k) const {
    return original_midranks_[k];
  }
  double window() const { return window_; }

 private:
  double window_;
  std::vector<std::vector<double>> original_midranks_;
};

/// Cluster-level linkage state. Instead of n per-row linkage records it
/// keeps one `LinkageRowBest` per original pattern cluster plus each row's
/// self distance. Rows of a cluster share their whole distance profile, so
/// the cluster record is exactly the per-row record of every member, and
/// scoring walks the rows serially in the same order (and with the same
/// float ops) as `LinkageCreditScore`.
///
/// A changed masked record j only perturbs the distances d(., j), so each
/// cluster's record updates in O(A) per changed row — O(C·A) per row, not
/// O(n·A) — and only clusters whose whole best-match support disappears are
/// rescanned (O(G·A) each). Rescans grow quickly with the touched-row share,
/// so DBRL rebuilds from 15% of the protected cells on.
///
/// `kFiltered` adds RSRL's rank window: a (cluster, group) pair counts only
/// when every attribute's masked mid-rank lies within the window of the
/// original one. The window hinges on the masked marginals, so a delta may
/// also flip whole (original-category, masked-category) blocks at an
/// attribute when a mid-rank crosses the boundary. The changed-row fold
/// removes and adds whole tuples under the old and new candidate matrices,
/// and a flipped block toggles whole masked groups against whole original
/// clusters, with multiplicity (group size minus the changed rows already
/// folded). A row whose own pair is outside the window keeps +∞ as its self
/// distance, so the credit loop is DBRL's. The flip sweeps rebuild a bit
/// earlier, from 12% of the cells, and also when flipped blocks plus
/// changed rows cover more than n²/8 pairs.
template <bool kFiltered>
class LinkageState : public MeasureState {
 public:
  using Bound = std::conditional_t<kFiltered, BoundRsrl, BoundDbrl>;

  LinkageState(const Bound* bound, const Dataset& masked)
      : MeasureState(/*rebuild_fraction=*/kFiltered ? 0.12 : 0.15),
        bound_(bound) {
    if constexpr (kFiltered) {
      const auto& attrs = bound_->tables().attrs();
      const PatternIndex& clusters = bound_->clusters();
      attr_pos_ = AttrPositions(attrs, masked.num_attributes());
      orig_counts_.resize(attrs.size());
      clusters_by_code_.resize(attrs.size());
      for (size_t k = 0; k < attrs.size(); ++k) {
        cards_.push_back(static_cast<size_t>(
            bound_->original().schema().attribute(attrs[k]).cardinality()));
        orig_counts_[k] = CategoryCounts(bound_->original(), attrs[k]);
        clusters_by_code_[k].resize(cards_[k]);
      }
      for (int64_t c = 0; c < clusters.num_clusters(); ++c) {
        const int32_t* codes = clusters.codes(c);
        for (size_t k = 0; k < attrs.size(); ++k) {
          clusters_by_code_[k][static_cast<size_t>(codes[k])].push_back(
              static_cast<int32_t>(c));
        }
      }
    }
    InitFrom(masked);
    SaveUndo();
  }

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    SaveUndo();
    if (ReachesThreshold(segment)) {
      RebuildWithUndo(masked_after);
      return;
    }
    const auto& row_deltas = segment.rows();
    if (row_deltas.empty()) return;

    // The window moves first: the rebuild guard depends only on the counts,
    // so a guard rebuild backs up untouched groups.
    Flips flips;
    if constexpr (kFiltered) {
      if (ShiftWindow(segment, &flips)) {
        RebuildWithUndo(masked_after);
        return;
      }
    }

    // Serial pass: record each changed row's old/new code tuples, move it
    // between pattern groups, refresh its self distance. Tuples go into a
    // flat scratch (groups_.codes() may reallocate on group creation, so
    // spans into it must not be retained).
    const PatternIndex& clusters = bound_->clusters();
    const DistanceTables& tables = bound_->tables();
    const auto& attrs = tables.attrs();
    size_t num_attrs = attrs.size();
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
      MoveRow(rd.row, new_codes);
      auto i = static_cast<size_t>(rd.row);
      undo_.d_self.push_back(SelfUndo{rd.row, d_self_[i]});
      d_self_[i] = SelfDistance(clusters.codes(clusters.cluster_of(rd.row)),
                                new_codes);
    }

    // Per-cluster fold: remove each changed row's old distance, add its new
    // one (under the old and new candidate matrices when filtered); a
    // cluster whose support empties stops here and is rescanned. Work per
    // cluster: two table reads per attribute and changed row, plus two
    // candidate reads when filtered.
    int64_t num_clusters = clusters.num_clusters();
    const auto fold_work =
        static_cast<int64_t>((kFiltered ? 4 : 2) * num_attrs * num_rds);
    rescan_.assign(static_cast<size_t>(num_clusters), 0);
    ParallelFor(0, num_clusters, [&](int64_t c) {
      LinkageRowBest& row = cluster_best_[static_cast<size_t>(c)];
      uint8_t* needs_rescan = &rescan_[static_cast<size_t>(c)];
      const int32_t* cluster_codes = clusters.codes(c);
      for (size_t r = 0; r < num_rds; ++r) {
        if (*needs_rescan) break;
        const int32_t* old_codes = rd_codes_.data() + 2 * r * num_attrs;
        const int32_t* new_codes = old_codes + num_attrs;
        bool cand_old = true, cand_new = true;
        if constexpr (kFiltered) {
          cand_old = AllCand(undo_.window.cand, cluster_codes, old_codes);
          cand_new = AllCand(window_.cand, cluster_codes, new_codes);
        }
        double sum_old = 0.0, sum_new = 0.0;
        for (size_t k = 0; k < num_attrs; ++k) {
          sum_old += tables.At(k, cluster_codes[k], old_codes[k]);
          sum_new += tables.At(k, cluster_codes[k], new_codes[k]);
        }
        double denom = static_cast<double>(num_attrs);
        if (cand_old) LinkageRemoveN(&row, sum_old / denom, 1, needs_rescan);
        if (!*needs_rescan && cand_new) LinkageAddN(&row, sum_new / denom, 1);
      }
    }, fold_work);
    if constexpr (kFiltered) {
      if (flips.any) FoldFlipBlocks(segment, flips);
    }

    // Rescans fan out over the flagged clusters only.
    rescan_list_.clear();
    for (int64_t c = 0; c < num_clusters; ++c) {
      if (rescan_[static_cast<size_t>(c)]) rescan_list_.push_back(c);
    }
    ParallelFor(0, static_cast<int64_t>(rescan_list_.size()), [&](int64_t i) {
      int64_t c = rescan_list_[static_cast<size_t>(i)];
      cluster_best_[static_cast<size_t>(c)] = ScanCluster(c);
    }, ScanWork());
    if constexpr (kFiltered) {
      if (flips.any) RefreshSelfCandidacy();
    }
    RefreshScore();
  }

  void RevertSegment() override {
    if (rebuilt()) {
      groups_ = undo_.groups;
      d_self_ = undo_.d_self_full;
      if constexpr (kFiltered) RebuildGroupsByCode();
    } else {
      // Groups created during the apply stay at size 0 (ids are never
      // reused), so the by-code lists remain valid as they are.
      groups_.UndoMoves(undo_.moves);
      for (auto it = undo_.d_self.rbegin(); it != undo_.d_self.rend(); ++it) {
        d_self_[static_cast<size_t>(it->row)] = it->old_value;
      }
    }
    if constexpr (kFiltered) window_ = undo_.window;
    cluster_best_ = undo_.cluster_best;
    score_ = undo_.score;
    undo_.moves.clear();
    undo_.d_self.clear();
  }

  double Score() const override { return score_; }

 private:
  /// Masked side of the rank window, per bound attribute: the marginals,
  /// their mid-ranks and the candidate matrix [o·card + m].
  struct Window {
    std::vector<std::vector<int64_t>> counts;
    std::vector<std::vector<double>> midranks;
    std::vector<std::vector<uint8_t>> cand;
  };

  /// Candidate pairs one apply toggled, per attribute: a [o·card + m] mask
  /// (empty for untouched attributes) and the (o, m) list.
  struct Flips {
    std::vector<std::vector<uint8_t>> mask;
    std::vector<std::vector<std::pair<int32_t, int32_t>>> pairs;
    bool any = false;
  };

  struct SelfUndo {
    int64_t row;
    double old_value;
  };

  struct Undo {
    std::vector<LinkageRowBest> cluster_best;
    Window window;
    std::vector<MaskedGroups::Move> moves;
    std::vector<SelfUndo> d_self;
    double score = 0.0;
    MaskedGroups groups;              ///< full backup (rebuild only)
    std::vector<double> d_self_full;  ///< full backup (rebuild only)
  };

  void SaveUndo() {
    undo_.moves.clear();
    undo_.d_self.clear();
    undo_.cluster_best = cluster_best_;
    if constexpr (kFiltered) undo_.window = window_;
    undo_.score = score_;
  }

  /// Full recompute that stays revertible.
  void RebuildWithUndo(const Dataset& masked_after) {
    MarkRebuilt();
    undo_.groups = groups_;
    undo_.d_self_full = d_self_;
    InitFrom(masked_after);
  }

  void InitFrom(const Dataset& masked) {
    const PatternIndex& clusters = bound_->clusters();
    const auto& attrs = bound_->tables().attrs();
    int64_t n = bound_->original().num_rows();
    if constexpr (kFiltered) {
      window_.counts.resize(attrs.size());
      window_.midranks.resize(attrs.size());
      window_.cand.resize(attrs.size());
      for (size_t k = 0; k < attrs.size(); ++k) {
        window_.counts[k] = CategoryCounts(masked, attrs[k]);
        window_.midranks[k] = MidranksFromCounts(window_.counts[k]);
        size_t card = cards_[k];
        window_.cand[k].assign(card * card, 0);
        for (size_t o = 0; o < card; ++o) {
          for (size_t m = 0; m < card; ++m) {
            window_.cand[k][o * card + m] = InWindow(k, o, m);
          }
        }
      }
    }
    groups_ = MaskedGroups::Build(masked, attrs);
    if constexpr (kFiltered) RebuildGroupsByCode();
    int64_t num_clusters = clusters.num_clusters();
    cluster_best_.assign(static_cast<size_t>(num_clusters), LinkageRowBest{});
    ParallelFor(0, num_clusters, [&](int64_t c) {
      cluster_best_[static_cast<size_t>(c)] = ScanCluster(c);
    }, ScanWork());
    d_self_.assign(static_cast<size_t>(n), 0.0);
    ParallelFor(0, n, [&](int64_t i) {
      d_self_[static_cast<size_t>(i)] =
          SelfDistance(clusters.codes(clusters.cluster_of(i)),
                       groups_.codes(groups_.group_of(i)));
    }, static_cast<int64_t>(attrs.size()));
    RefreshScore();
  }

  /// `ParallelFor` work of one `ScanCluster`: a distance read per attribute
  /// for every masked group, plus a candidate read when filtered.
  int64_t ScanWork() const {
    return (kFiltered ? 2 : 1) * groups_.num_groups() *
           static_cast<int64_t>(groups_.num_attrs());
  }

  /// Fresh fold of one original cluster against every masked pattern group
  /// in group id order. Agrees with the per-row scan whenever distances are
  /// exact ties or separated by more than the linkage epsilon.
  LinkageRowBest ScanCluster(int64_t c) const {
    const int32_t* cluster_codes = bound_->clusters().codes(c);
    LinkageRowBest best;
    int64_t num_groups = groups_.num_groups();
    for (int64_t g = 0; g < num_groups; ++g) {
      int64_t size = groups_.group_size(g);
      if (size <= 0) continue;
      const int32_t* group_codes = groups_.codes(g);
      if constexpr (kFiltered) {
        if (!AllCand(window_.cand, cluster_codes, group_codes)) continue;
      }
      LinkageAddN(&best,
                  bound_->tables().RecordDistanceCodes(cluster_codes,
                                                       group_codes),
                  size);
    }
    return best;
  }

  double SelfDistance(const int32_t* cluster_codes,
                      const int32_t* group_codes) const {
    if constexpr (kFiltered) {
      if (!AllCand(window_.cand, cluster_codes, group_codes)) {
        return kUnlinkable;
      }
    }
    return bound_->tables().RecordDistanceCodes(cluster_codes, group_codes);
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

  void MoveRow(int64_t row, const int32_t* new_codes) {
    int64_t groups_before = groups_.num_groups();
    groups_.ApplyRow(row, new_codes, &undo_.moves);
    if constexpr (kFiltered) AppendNewGroups(groups_before);
  }

  // ---- Rank window (kFiltered only) ----

  bool InWindow(size_t k, size_t o, size_t m) const {
    return std::fabs(bound_->original_midranks(k)[o] -
                     window_.midranks[k][m]) <= bound_->window();
  }

  bool AllCand(const std::vector<std::vector<uint8_t>>& cand,
               const int32_t* o_codes, const int32_t* m_codes) const {
    for (size_t k = 0; k < cand.size(); ++k) {
      if (!cand[k][static_cast<size_t>(o_codes[k]) * cards_[k] +
                   static_cast<size_t>(m_codes[k])]) {
        return false;
      }
    }
    return true;
  }

  /// Folds the batch into the masked marginals and re-derives the touched
  /// attributes' mid-ranks and candidate matrices, recording every flip.
  /// Returns whether flipped blocks plus changed rows cover more than n²/8
  /// pairs, where a rebuild (which also refreshes every distance) costs no
  /// more. The pair estimate multiplies the original and masked marginals,
  /// so the decision depends only on the counts.
  bool ShiftWindow(const SegmentDelta& segment, Flips* flips) {
    size_t num_attrs = cards_.size();
    int64_t n = bound_->original().num_rows();
    std::vector<uint8_t> attr_changed(num_attrs, 0);
    for (const RowDelta& rd : segment.rows()) {
      for (const auto& cell : rd.cells) {
        int pos = attr_pos_[static_cast<size_t>(cell.attr)];
        if (pos < 0 || cell.old_code == cell.new_code) continue;
        auto k = static_cast<size_t>(pos);
        window_.counts[k][static_cast<size_t>(cell.old_code)] -= 1;
        window_.counts[k][static_cast<size_t>(cell.new_code)] += 1;
        attr_changed[k] = 1;
      }
    }
    flips->mask.resize(num_attrs);
    flips->pairs.resize(num_attrs);
    int64_t affected_pairs = 0;
    for (size_t k = 0; k < num_attrs; ++k) {
      if (!attr_changed[k]) continue;
      window_.midranks[k] = MidranksFromCounts(window_.counts[k]);
      size_t card = cards_[k];
      flips->mask[k].assign(card * card, 0);
      for (size_t o = 0; o < card; ++o) {
        for (size_t m = 0; m < card; ++m) {
          uint8_t now = InWindow(k, o, m);
          if (now == window_.cand[k][o * card + m]) continue;
          window_.cand[k][o * card + m] = now;
          flips->mask[k][o * card + m] = 1;
          flips->pairs[k].emplace_back(static_cast<int32_t>(o),
                                       static_cast<int32_t>(m));
          flips->any = true;
          affected_pairs += orig_counts_[k][o] * window_.counts[k][m];
        }
      }
    }
    return affected_pairs + n * static_cast<int64_t>(segment.rows().size()) >
           n * n / 8;
  }

  /// Flip blocks: (cluster, group) pairs whose candidacy toggled through a
  /// mid-rank shift alone. Each group's multiplicity excludes the changed
  /// rows the row fold already handled; a pair covered by several flipped
  /// attributes is handled once, at its first one.
  void FoldFlipBlocks(const SegmentDelta& segment, const Flips& flips) {
    const PatternIndex& clusters = bound_->clusters();
    changed_in_group_.assign(static_cast<size_t>(groups_.num_groups()), 0);
    for (const RowDelta& rd : segment.rows()) {
      ++changed_in_group_[static_cast<size_t>(groups_.group_of(rd.row))];
    }
    for (size_t k = 0; k < flips.pairs.size(); ++k) {
      for (const auto& [o, m] : flips.pairs[k]) {
        for (int32_t g : groups_by_code_[k][static_cast<size_t>(m)]) {
          int64_t eff = groups_.group_size(g) -
                        changed_in_group_[static_cast<size_t>(g)];
          if (eff <= 0) continue;
          const int32_t* group_codes = groups_.codes(g);
          for (int32_t c : clusters_by_code_[k][static_cast<size_t>(o)]) {
            if (rescan_[static_cast<size_t>(c)]) continue;
            const int32_t* cluster_codes = clusters.codes(c);
            if (!FirstFlippedAttr(flips.mask, cluster_codes, group_codes, k)) {
              continue;
            }
            bool cand_old =
                AllCand(undo_.window.cand, cluster_codes, group_codes);
            bool cand_new = AllCand(window_.cand, cluster_codes, group_codes);
            if (cand_old == cand_new) continue;
            double d = bound_->tables().RecordDistanceCodes(cluster_codes,
                                                            group_codes);
            LinkageRowBest& row = cluster_best_[static_cast<size_t>(c)];
            if (cand_old) {
              LinkageRemoveN(&row, d, eff, &rescan_[static_cast<size_t>(c)]);
            } else {
              LinkageAddN(&row, d, eff);
            }
          }
        }
      }
    }
  }

  /// True when `k` is the first attribute whose flip block covers the
  /// (cluster, group) code pair.
  bool FirstFlippedAttr(const std::vector<std::vector<uint8_t>>& mask,
                        const int32_t* o_codes, const int32_t* m_codes,
                        size_t k) const {
    for (size_t k2 = 0; k2 < k; ++k2) {
      if (mask[k2].empty()) continue;
      if (mask[k2][static_cast<size_t>(o_codes[k2]) * cards_[k2] +
                   static_cast<size_t>(m_codes[k2])]) {
        return false;
      }
    }
    return true;
  }

  /// A flip can toggle any row's own pair, so every self distance is
  /// re-checked against the new window. Only the rows whose value moved are
  /// logged for the revert: each shard logs its own, appended in shard order.
  void RefreshSelfCandidacy() {
    const PatternIndex& clusters = bound_->clusters();
    int64_t n = bound_->original().num_rows();
    int shards = ResolveShardCount();
    self_logs_.resize(static_cast<size_t>(shards));
    ParallelFor(0, shards, [&](int64_t s) {
      std::vector<SelfUndo>& log = self_logs_[static_cast<size_t>(s)];
      log.clear();
      RowRange range = ShardRows(n, static_cast<int>(s), shards);
      for (int64_t i = range.begin; i < range.end; ++i) {
        double& d_self = d_self_[static_cast<size_t>(i)];
        const int32_t* cluster_codes = clusters.codes(clusters.cluster_of(i));
        const int32_t* group_codes = groups_.codes(groups_.group_of(i));
        bool in_window = AllCand(window_.cand, cluster_codes, group_codes);
        if (in_window == (d_self != kUnlinkable)) continue;
        log.push_back(SelfUndo{i, d_self});
        d_self = in_window ? bound_->tables().RecordDistanceCodes(cluster_codes,
                                                                  group_codes)
                           : kUnlinkable;
      }
    }, (n / shards + 1) * static_cast<int64_t>(cards_.size()));
    for (const std::vector<SelfUndo>& log : self_logs_) {
      undo_.d_self.insert(undo_.d_self.end(), log.begin(), log.end());
    }
  }

  /// Indexes groups created since `from` into the by-code lists (append-only,
  /// mirroring the never-deleted group ids).
  void AppendNewGroups(int64_t from) {
    for (int64_t g = from; g < groups_.num_groups(); ++g) {
      const int32_t* group_codes = groups_.codes(g);
      for (size_t k = 0; k < groups_.num_attrs(); ++k) {
        groups_by_code_[k][static_cast<size_t>(group_codes[k])].push_back(
            static_cast<int32_t>(g));
      }
    }
  }

  void RebuildGroupsByCode() {
    groups_by_code_.assign(cards_.size(), {});
    for (size_t k = 0; k < cards_.size(); ++k) {
      groups_by_code_[k].resize(cards_[k]);
    }
    AppendNewGroups(0);
  }

  const Bound* bound_;
  MaskedGroups groups_;
  std::vector<LinkageRowBest> cluster_best_;  ///< per original cluster
  /// d(cluster(i), group(i)), or kUnlinkable when the row's own pair is
  /// outside the rank window.
  std::vector<double> d_self_;
  double score_ = 0.0;
  Undo undo_;
  // Rank window (kFiltered only; empty otherwise).
  Window window_;
  std::vector<int> attr_pos_;
  std::vector<size_t> cards_;                      ///< per bound attribute
  std::vector<std::vector<int64_t>> orig_counts_;  ///< original marginals
  /// Static: clusters holding original code o at attribute k.
  std::vector<std::vector<std::vector<int32_t>>> clusters_by_code_;
  /// Dynamic, append-only: groups holding masked code m at attribute k.
  std::vector<std::vector<std::vector<int32_t>>> groups_by_code_;
  // Per-apply scratch, reused across generations.
  std::vector<uint8_t> rescan_;
  std::vector<int64_t> rescan_list_;  ///< flagged clusters, ascending
  std::vector<int32_t> rd_codes_;
  std::vector<int64_t> changed_in_group_;
  std::vector<std::vector<SelfUndo>> self_logs_;  ///< per shard
};

std::unique_ptr<MeasureState> BoundDbrl::BindState(const Dataset& masked) const {
  return std::make_unique<LinkageState<false>>(this, masked);
}

std::unique_ptr<MeasureState> BoundRsrl::BindState(const Dataset& masked) const {
  return std::make_unique<LinkageState<true>>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> DistanceBasedRecordLinkage::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  return std::unique_ptr<BoundMeasure>(new BoundDbrl(original, attrs));
}

Result<std::unique_ptr<BoundMeasure>> RankSwappingRecordLinkage::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  return std::unique_ptr<BoundMeasure>(
      new BoundRsrl(original, attrs, assumed_p_percent_));
}

void RegisterDbrlMeasure(MeasureRegistry* registry) {
  registry->Register(
      "DBRL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("DBRL", params);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<Measure>(new DistanceBasedRecordLinkage());
      });
}

void RegisterRsrlMeasure(MeasureRegistry* registry) {
  registry->Register(
      "RSRL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("RSRL", params);
        double assumed_p_percent = reader.GetDouble("assumed_p_percent", 15.0);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        if (assumed_p_percent <= 0.0 || assumed_p_percent > 100.0) {
          return Status::Invalid(
              "RSRL.assumed_p_percent must be in (0, 100], got ",
              assumed_p_percent);
        }
        return std::unique_ptr<Measure>(
            new RankSwappingRecordLinkage(assumed_p_percent));
      });
}

}  // namespace metrics
}  // namespace evocat
