#include "metrics/prl.h"

#include "metrics/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/math_utils.h"
#include "common/parallel.h"
#include "metrics/delta.h"
#include "metrics/plane.h"
#include "obs/metrics.h"

namespace evocat {
namespace metrics {

namespace {
constexpr double kProbFloor = 1e-6;
constexpr double kProbCeil = 1.0 - 1e-6;
// Weight-tie epsilon; shared with the distance-tie epsilon of the other
// linkage attacks so the tie semantics stay uniform.
constexpr double kEps = kLinkageEps;

/// Counts every PRL EM fit (first fits, rebuilds and delta refits alike).
obs::Counter* EmColdStartsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_delta_plane_em_cold_starts_total",
      "PRL EM fits; every fit runs the cold schedule on the current counts.");
  return counter;
}

/// One EM sweep (E-step over the nonzero pattern counts, clamped M-step)
/// applied in place. Returns true when the sweep left the model bitwise
/// unchanged — an exact fixed point: any further sweep recomputes the
/// identical E- and M-steps from identical inputs, so iteration can stop
/// with provably no effect on the final model.
bool EmSweep(const std::vector<std::pair<uint32_t, double>>& pattern_counts,
             int num_attrs, double total, FellegiSunterModel* model) {
  const FellegiSunterModel before = *model;
  double sum_g = 0.0, sum_1mg = 0.0;
  std::vector<double> m_num(static_cast<size_t>(num_attrs), 0.0);
  std::vector<double> u_num(static_cast<size_t>(num_attrs), 0.0);
  for (const auto& [p, count] : pattern_counts) {
    if (count <= 0.0) continue;
    // E-step: posterior match probability of this pattern.
    double like_m = model->match_prevalence;
    double like_u = 1.0 - model->match_prevalence;
    for (int k = 0; k < num_attrs; ++k) {
      bool agree = (p >> k) & 1u;
      like_m *= agree ? model->m[static_cast<size_t>(k)]
                      : 1.0 - model->m[static_cast<size_t>(k)];
      like_u *= agree ? model->u[static_cast<size_t>(k)]
                      : 1.0 - model->u[static_cast<size_t>(k)];
    }
    double denom = like_m + like_u;
    double g = denom > 0 ? like_m / denom : 0.5;
    sum_g += g * count;
    sum_1mg += (1.0 - g) * count;
    for (int k = 0; k < num_attrs; ++k) {
      if ((p >> k) & 1u) {
        m_num[static_cast<size_t>(k)] += g * count;
        u_num[static_cast<size_t>(k)] += (1.0 - g) * count;
      }
    }
  }
  // M-step with clamping to keep the weights finite.
  if (sum_g > 0) {
    for (int k = 0; k < num_attrs; ++k) {
      model->m[static_cast<size_t>(k)] =
          Clamp(m_num[static_cast<size_t>(k)] / sum_g, kProbFloor, kProbCeil);
    }
  }
  if (sum_1mg > 0) {
    for (int k = 0; k < num_attrs; ++k) {
      model->u[static_cast<size_t>(k)] =
          Clamp(u_num[static_cast<size_t>(k)] / sum_1mg, kProbFloor, kProbCeil);
    }
  }
  if (total > 0) {
    model->match_prevalence = Clamp(sum_g / total, kProbFloor, kProbCeil);
  }
  return model->m == before.m && model->u == before.u &&
         model->match_prevalence == before.match_prevalence;
}
}  // namespace

double FellegiSunterModel::PatternWeight(uint32_t pattern) const {
  double w = 0.0;
  for (size_t k = 0; k < m.size(); ++k) {
    bool agree = (pattern >> k) & 1u;
    w += agree ? std::log(m[k] / u[k])
               : std::log((1.0 - m[k]) / (1.0 - u[k]));
  }
  return w;
}

FellegiSunterModel FitFellegiSunter(
    const std::vector<std::pair<uint32_t, double>>& pattern_counts,
    int num_attrs, int em_iterations) {
  double total = 0.0;
  for (const auto& [pattern, count] : pattern_counts) total += count;

  FellegiSunterModel model;
  model.m.assign(static_cast<size_t>(num_attrs), 0.9);
  model.u.assign(static_cast<size_t>(num_attrs), 0.1);
  model.match_prevalence = total > 0 ? 1.0 / std::sqrt(total) : 0.5;

  for (int iter = 0; iter < em_iterations; ++iter) {
    // A bitwise fixed point makes the remaining sweeps no-ops — stop.
    if (EmSweep(pattern_counts, num_attrs, total, &model)) break;
  }
  return model;
}

FellegiSunterModel FitFellegiSunter(const std::vector<double>& pattern_counts,
                                    int num_attrs, int em_iterations) {
  // Ascending-pattern nonzero entries run through the identical arithmetic
  // (the dense E-step skipped count <= 0 patterns anyway).
  std::vector<std::pair<uint32_t, double>> sparse;
  for (uint32_t p = 0; p < pattern_counts.size(); ++p) {
    if (pattern_counts[p] > 0.0) sparse.emplace_back(p, pattern_counts[p]);
  }
  return FitFellegiSunter(sparse, num_attrs, em_iterations);
}

namespace {

class BoundPrl : public BoundMeasure {
 public:
  BoundPrl(const Dataset& original, const std::vector<int>& attrs,
           int em_iterations)
      : original_(&original), attrs_(attrs), em_iterations_(em_iterations) {
    // Pattern clustering of the original rows: agreement patterns depend
    // only on the code tuples, so state builds fold per (cluster, masked
    // group) pair instead of per row pair.
    clusters_ = PatternIndex::Build(original, attrs);
  }

  double Compute(const Dataset& masked) const override {
    int64_t n = original_->num_rows();
    int num_attrs = static_cast<int>(attrs_.size());
    size_t num_patterns = static_cast<size_t>(1) << num_attrs;

    // Pass 1: agreement-pattern counts over all pairs, parallel over i with
    // per-row local counters (counts are integers, so the reduction order
    // cannot change the result). For wide pattern spaces the per-row
    // counters would dominate memory, so fall back to a serial sweep.
    std::vector<double> counts(num_patterns, 0.0);
    if (num_patterns <= 1024) {
      std::vector<std::vector<double>> row_counts(
          static_cast<size_t>(n), std::vector<double>(num_patterns, 0.0));
      ParallelFor(0, n, [&](int64_t i) {
        auto& local = row_counts[static_cast<size_t>(i)];
        for (int64_t j = 0; j < n; ++j) {
          local[PatternOf(i, masked, j)] += 1.0;
        }
      });
      for (const auto& local : row_counts) {
        for (size_t p = 0; p < num_patterns; ++p) counts[p] += local[p];
      }
    } else {
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          counts[PatternOf(i, masked, j)] += 1.0;
        }
      }
    }

    FellegiSunterModel model = FitFellegiSunter(counts, num_attrs, em_iterations_);
    std::vector<double> weights(num_patterns);
    for (uint32_t p = 0; p < num_patterns; ++p) {
      weights[p] = model.PatternWeight(p);
    }

    // Pass 2: link each original record to the max-weight masked record.
    std::vector<double> credits(static_cast<size_t>(n), 0.0);
    ParallelFor(0, n, [&](int64_t i) {
      double best = -1e100;
      int64_t best_count = 0;
      bool self_is_best = false;
      for (int64_t j = 0; j < n; ++j) {
        double w = weights[PatternOf(i, masked, j)];
        if (w > best + kEps) {
          best = w;
          best_count = 1;
          self_is_best = (j == i);
        } else if (w >= best - kEps) {
          ++best_count;
          if (j == i) self_is_best = true;
        }
      }
      if (self_is_best && best_count > 0) {
        credits[static_cast<size_t>(i)] = 1.0 / static_cast<double>(best_count);
      }
    });
    double credit = 0.0;
    for (double c : credits) credit += c;
    return n > 0 ? 100.0 * credit / static_cast<double>(n) : 0.0;
  }

  std::unique_ptr<MeasureState> BindState(const Dataset& masked) const override;

  uint32_t PatternOf(int64_t orig_row, const Dataset& masked,
                     int64_t masked_row) const {
    uint32_t pattern = 0;
    for (size_t k = 0; k < attrs_.size(); ++k) {
      if (original_->Code(orig_row, attrs_[k]) ==
          masked.Code(masked_row, attrs_[k])) {
        pattern |= (1u << k);
      }
    }
    return pattern;
  }

  /// \brief Agreement pattern from two flat code tuples (bound order) —
  /// the same bit layout as `PatternOf` for equal codes.
  uint32_t PatternOfCodes(const int32_t* orig_codes,
                          const int32_t* masked_codes) const {
    uint32_t pattern = 0;
    for (size_t k = 0; k < attrs_.size(); ++k) {
      if (orig_codes[k] == masked_codes[k]) pattern |= (1u << k);
    }
    return pattern;
  }

  const Dataset& original() const { return *original_; }
  const std::vector<int>& attrs() const { return attrs_; }
  int em_iterations() const { return em_iterations_; }
  const PatternIndex& clusters() const { return clusters_; }

 private:
  const Dataset* original_;
  std::vector<int> attrs_;
  int em_iterations_;
  PatternIndex clusters_;
};

/// Cluster-level PRL state. PRL's sufficient statistic is, per original
/// record, the histogram of agreement patterns against every masked record
/// (plus the global pattern counts feeding the EM fit). Rows sharing an
/// original code tuple share that histogram, so the state keeps one per
/// *original cluster*, scaled by cluster size into the global counts, and
/// each row keeps only its own self pattern.
///
/// The histograms are *compressed*: a sorted sparse (pattern, count) vector
/// instead of a dense 2^attrs layout, so the state works at any attribute
/// count (a cluster can meet at most G distinct patterns no matter how wide
/// the pattern space is). A changed masked row shifts one histogram unit
/// per cluster — O(C · (|attrs| + log distinct)) per changed row — after
/// which the EM refit reads the sorted nonzero global counts (identical
/// arithmetic to the dense oracle) and the per-cluster argmax reads only
/// the cluster's own nonzero buckets. Cost model: the per-changed-row
/// histogram shifts (two pattern computes plus two sorted-bucket updates
/// per cluster) overtake a rebuild once a batch covers roughly a fifth of
/// the protected cells — fraction 0.2.
class ClusteredPrlState : public MeasureState {
 public:
  ClusteredPrlState(const BoundPrl* bound, const Dataset& masked)
      : MeasureState(/*rebuild_fraction=*/0.2), bound_(bound) {
    InitFrom(masked);
    undo_.counts = counts_;
    undo_.score = score_;
  }

  void ApplySegment(const Dataset& masked_after,
                    const SegmentDelta& segment) override {
    undo_.counts = counts_;
    undo_.score = score_;
    undo_.shifts.clear();
    undo_.p_self.clear();
    if (ReachesThreshold(segment)) {
      undo_.hist_backup = cluster_hist_;
      undo_.p_self_backup = p_self_;
      InitFrom(masked_after);
      return;
    }
    const auto& row_deltas = segment.rows();
    if (row_deltas.empty()) return;

    const auto& attrs = bound_->attrs();
    const PatternIndex& clusters = bound_->clusters();
    size_t num_attrs = attrs.size();
    int64_t num_clusters = clusters.num_clusters();
    scratch_.resize(static_cast<size_t>(num_clusters));

    for (const RowDelta& rd : row_deltas) {
      bool relevant = false;
      for (const auto& cell : rd.cells) {
        for (int attr : attrs) relevant = relevant || cell.attr == attr;
      }
      if (!relevant) continue;
      rd_codes_.assign(2 * num_attrs, 0);
      int32_t* old_codes = rd_codes_.data();
      int32_t* new_codes = old_codes + num_attrs;
      for (size_t k = 0; k < num_attrs; ++k) {
        old_codes[k] = rd.OldCode(masked_after, attrs[k]);
        new_codes[k] = masked_after.Code(rd.row, attrs[k]);
      }
      // Per original cluster: shift one histogram unit from the changed
      // row's old pattern to its new one (every member row sees the same
      // transition). The (old, new) pairs land in a reused dense scratch;
      // only clusters whose pattern actually moved are logged for Revert
      // and folded into the global counts. Work per cluster: two code
      // compares per attribute.
      ParallelFor(0, num_clusters, [&](int64_t c) {
        const int32_t* cluster_codes = clusters.codes(c);
        uint32_t p_old = bound_->PatternOfCodes(cluster_codes, old_codes);
        uint32_t p_new = bound_->PatternOfCodes(cluster_codes, new_codes);
        scratch_[static_cast<size_t>(c)] =
            (static_cast<uint64_t>(p_old) << 32) | p_new;
        if (p_old != p_new) {
          auto& hist = cluster_hist_[static_cast<size_t>(c)];
          Shift(&hist, p_old, -1);
          Shift(&hist, p_new, +1);
        }
      }, static_cast<int64_t>(2 * num_attrs));
      for (int64_t c = 0; c < num_clusters; ++c) {
        auto p_old =
            static_cast<uint32_t>(scratch_[static_cast<size_t>(c)] >> 32);
        auto p_new = static_cast<uint32_t>(scratch_[static_cast<size_t>(c)] &
                                           0xFFFFFFFFu);
        if (p_old != p_new) {
          undo_.shifts.push_back(Undo::Shift{c, p_old, p_new});
          int64_t size = clusters.cluster_size(c);
          count_shifts_[p_old] -= size;
          count_shifts_[p_new] += size;
        }
      }
      // The changed row's own self pattern.
      int32_t self_cluster = clusters.cluster_of(rd.row);
      undo_.p_self.push_back(
          PselfUndo{rd.row, p_self_[static_cast<size_t>(rd.row)]});
      p_self_[static_cast<size_t>(rd.row)] =
          bound_->PatternOfCodes(clusters.codes(self_cluster), new_codes);
    }
    // Global pattern counts are the histograms' size-weighted column sums;
    // integer arithmetic, so shifting them by the batch's net per-pattern
    // movement lands on exactly the values a from-scratch resum produces.
    MergeCountShifts();
    RefreshScore();
  }

  void RevertSegment() override {
    if (rebuilt()) {
      cluster_hist_ = undo_.hist_backup;
      p_self_ = undo_.p_self_backup;
    } else {
      for (auto it = undo_.shifts.rbegin(); it != undo_.shifts.rend(); ++it) {
        auto& hist = cluster_hist_[static_cast<size_t>(it->cluster)];
        Shift(&hist, it->p_new, -1);
        Shift(&hist, it->p_old, +1);
      }
      for (auto it = undo_.p_self.rbegin(); it != undo_.p_self.rend(); ++it) {
        p_self_[static_cast<size_t>(it->row)] = it->old_pattern;
      }
    }
    counts_ = undo_.counts;
    score_ = undo_.score;
    undo_.shifts.clear();
    undo_.p_self.clear();
  }

  double Score() const override { return score_; }

 private:
  /// One nonzero histogram bucket: agreement pattern and its pair count.
  using PatternCount = std::pair<uint32_t, int32_t>;

  struct PselfUndo {
    int64_t row;
    uint32_t old_pattern;
  };

  /// One-level undo: counts/score snapshots are small; histogram changes
  /// are replayed backwards from a sparse log of the clusters whose pattern
  /// actually moved.
  struct Undo {
    /// One histogram unit moved from `p_old` to `p_new` for `cluster`.
    struct Shift {
      int64_t cluster;
      uint32_t p_old;
      uint32_t p_new;
    };
    std::vector<std::pair<uint32_t, double>> counts;
    double score = 0.0;
    std::vector<Shift> shifts;
    std::vector<PselfUndo> p_self;
    std::vector<std::vector<PatternCount>> hist_backup;
    std::vector<uint32_t> p_self_backup;
  };

  /// Moves `delta` units of count into `pattern`'s bucket, keeping the
  /// histogram sorted and zero-free.
  static void Shift(std::vector<PatternCount>* hist, uint32_t pattern,
                    int32_t delta) {
    auto it = std::lower_bound(
        hist->begin(), hist->end(), pattern,
        [](const PatternCount& entry, uint32_t p) { return entry.first < p; });
    if (it != hist->end() && it->first == pattern) {
      it->second += delta;
      if (it->second == 0) hist->erase(it);
    } else {
      hist->insert(it, PatternCount{pattern, delta});
    }
  }

  /// Pattern-clustered build: one O(G) fold per *cluster* over the masked
  /// pattern groups instead of n O(n) row scans. The bucket counts are
  /// integer sums of group sizes, identical for any shard count.
  void InitFrom(const Dataset& masked) {
    const auto& attrs = bound_->attrs();
    int64_t n = bound_->original().num_rows();
    size_t num_attrs = attrs.size();
    const PatternIndex& clusters = bound_->clusters();
    MaskedGroups groups = MaskedGroups::Build(masked, attrs);
    int64_t num_clusters = clusters.num_clusters();
    int64_t num_groups = groups.num_groups();
    // Narrow pattern spaces count into a dense per-cluster scratch; wide
    // ones sort the cluster's (pattern, group size) pairs and merge. Both
    // produce the same sorted nonzero buckets.
    const bool dense_scratch =
        num_attrs <= 12;  // 2^12 * 8 bytes of scratch per cluster
    cluster_hist_.assign(static_cast<size_t>(num_clusters), {});
    ParallelFor(0, num_clusters, [&](int64_t c) {
      auto& hist = cluster_hist_[static_cast<size_t>(c)];
      const int32_t* cluster_codes = clusters.codes(c);
      if (dense_scratch) {
        std::vector<int64_t> scratch(static_cast<size_t>(1) << num_attrs, 0);
        for (int64_t g = 0; g < num_groups; ++g) {
          int64_t size = groups.group_size(g);
          if (size <= 0) continue;
          scratch[bound_->PatternOfCodes(cluster_codes, groups.codes(g))] +=
              size;
        }
        for (size_t p = 0; p < scratch.size(); ++p) {
          if (scratch[p] != 0) {
            hist.emplace_back(static_cast<uint32_t>(p),
                              static_cast<int32_t>(scratch[p]));
          }
        }
      } else {
        std::vector<std::pair<uint32_t, int64_t>> pairs;
        pairs.reserve(static_cast<size_t>(num_groups));
        for (int64_t g = 0; g < num_groups; ++g) {
          int64_t size = groups.group_size(g);
          if (size <= 0) continue;
          pairs.emplace_back(
              bound_->PatternOfCodes(cluster_codes, groups.codes(g)), size);
        }
        std::sort(pairs.begin(), pairs.end());
        for (size_t j = 0; j < pairs.size();) {
          size_t run = j;
          int64_t count = 0;
          while (run < pairs.size() && pairs[run].first == pairs[j].first) {
            count += pairs[run].second;
            ++run;
          }
          hist.emplace_back(pairs[j].first, static_cast<int32_t>(count));
          j = run;
        }
      }
    }, num_groups * static_cast<int64_t>(num_attrs));
    p_self_.assign(static_cast<size_t>(n), 0);
    ParallelFor(0, n, [&](int64_t i) {
      p_self_[static_cast<size_t>(i)] = bound_->PatternOfCodes(
          clusters.codes(clusters.cluster_of(i)),
          groups.codes(groups.group_of(i)));
    }, static_cast<int64_t>(num_attrs));
    RefreshCounts();
    RefreshScore();
  }

  /// Global counts are the cluster histograms' column sums scaled by
  /// cluster size — the same integer totals as summing per-row histograms.
  void RefreshCounts() {
    const PatternIndex& clusters = bound_->clusters();
    std::unordered_map<uint32_t, int64_t> totals;
    for (int64_t c = 0; c < clusters.num_clusters(); ++c) {
      int64_t size = clusters.cluster_size(c);
      for (const auto& [pattern, count] : cluster_hist_[static_cast<size_t>(c)]) {
        totals[pattern] += size * count;
      }
    }
    counts_.clear();
    counts_.reserve(totals.size());
    for (const auto& [pattern, count] : totals) {
      if (count != 0) {
        counts_.emplace_back(pattern, static_cast<double>(count));
      }
    }
    std::sort(counts_.begin(), counts_.end());
  }

  /// Applies the batch's accumulated per-pattern count movement to the
  /// sorted global counts in one linear merge (counts are integer-valued,
  /// so the shifted totals equal a from-scratch resum exactly).
  void MergeCountShifts() {
    if (count_shifts_.empty()) return;
    std::vector<std::pair<uint32_t, double>> shifts;
    shifts.reserve(count_shifts_.size());
    for (const auto& [pattern, delta] : count_shifts_) {
      if (delta != 0) shifts.emplace_back(pattern, static_cast<double>(delta));
    }
    count_shifts_.clear();
    if (shifts.empty()) return;
    std::sort(shifts.begin(), shifts.end());
    std::vector<std::pair<uint32_t, double>> merged;
    merged.reserve(counts_.size() + shifts.size());
    size_t a = 0, b = 0;
    while (a < counts_.size() || b < shifts.size()) {
      if (b >= shifts.size() ||
          (a < counts_.size() && counts_[a].first < shifts[b].first)) {
        merged.push_back(counts_[a++]);
      } else if (a >= counts_.size() || shifts[b].first < counts_[a].first) {
        merged.push_back(shifts[b++]);
      } else {
        double value = counts_[a].second + shifts[b].second;
        if (value != 0.0) merged.emplace_back(counts_[a].first, value);
        ++a;
        ++b;
      }
    }
    counts_ = std::move(merged);
  }

  void RefreshScore() {
    const auto& attrs = bound_->attrs();
    const PatternIndex& clusters = bound_->clusters();
    int64_t n = bound_->original().num_rows();
    int64_t num_clusters = clusters.num_clusters();
    size_t num_attrs = attrs.size();
    // Every refit runs the cold fit on the current counts — the arithmetic
    // Compute runs — so the model is a function of the file, not of the
    // walk that reached it.
    FellegiSunterModel model = FitFellegiSunter(
        counts_, static_cast<int>(num_attrs), bound_->em_iterations());
    EmColdStartsCounter()->Increment();
    // Weights for exactly the patterns alive somewhere in the file; every
    // cluster's buckets (and each row's self pattern) are a subset of these.
    std::vector<double> weights(counts_.size());
    for (size_t idx = 0; idx < counts_.size(); ++idx) {
      weights[idx] = model.PatternWeight(counts_[idx].first);
    }
    auto weight_of = [&](uint32_t pattern) {
      auto it = std::lower_bound(
          counts_.begin(), counts_.end(), pattern,
          [](const std::pair<uint32_t, double>& entry, uint32_t p) {
            return entry.first < p;
          });
      if (it != counts_.end() && it->first == pattern) {
        return weights[static_cast<size_t>(it - counts_.begin())];
      }
      return model.PatternWeight(pattern);
    };
    // Dense weight cache (narrow spaces): same values as weight_of, one
    // array read per lookup in the argmax and the serial credit loop.
    const std::vector<double>* dense = nullptr;
    if (num_attrs <= 12) {
      size_t num_patterns = static_cast<size_t>(1) << num_attrs;
      dense_weights_.resize(num_patterns);
      for (size_t p = 0; p < num_patterns; ++p) {
        dense_weights_[p] = weight_of(static_cast<uint32_t>(p));
      }
      dense = &dense_weights_;
    }
    auto weight = [&](uint32_t pattern) {
      return dense != nullptr ? (*dense)[pattern] : weight_of(pattern);
    };
    // Per-cluster best weight attained by any masked record and its support
    // size (scan-equivalent to Compute's per-record argmax — a cluster's
    // histogram is each member's). A histogram holds at most one bucket per
    // live pattern, and the argmax reads each bucket twice.
    cluster_best_.assign(static_cast<size_t>(num_clusters), 0.0);
    cluster_best_count_.assign(static_cast<size_t>(num_clusters), 0);
    ParallelFor(0, num_clusters, [&](int64_t c) {
      const auto& hist = cluster_hist_[static_cast<size_t>(c)];
      double best = -1e100;
      for (const auto& [pattern, count] : hist) {
        if (count > 0) {
          double w = weight(pattern);
          if (w > best) best = w;
        }
      }
      int64_t best_count = 0;
      for (const auto& [pattern, count] : hist) {
        if (count > 0 && weight(pattern) >= best - kEps) {
          best_count += count;
        }
      }
      cluster_best_[static_cast<size_t>(c)] = best;
      cluster_best_count_[static_cast<size_t>(c)] = best_count;
    }, static_cast<int64_t>(2 * counts_.size()));
    double credit = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      auto c = static_cast<size_t>(clusters.cluster_of(i));
      uint32_t p_self = p_self_[static_cast<size_t>(i)];
      double w_self = weight(p_self);
      if (w_self >= cluster_best_[c] - kEps && cluster_best_count_[c] > 0) {
        credit += 1.0 / static_cast<double>(cluster_best_count_[c]);
      }
    }
    score_ = n > 0 ? 100.0 * credit / static_cast<double>(n) : 0.0;
  }

  const BoundPrl* bound_;
  /// Per original cluster: sorted sparse (pattern, count) histogram of the
  /// agreement patterns against every masked record.
  std::vector<std::vector<PatternCount>> cluster_hist_;
  /// Sorted nonzero global pattern counts (EM input).
  std::vector<std::pair<uint32_t, double>> counts_;
  std::vector<uint32_t> p_self_;
  double score_ = 0.0;
  Undo undo_;
  // Per-apply scratch, reused across generations.
  std::vector<uint64_t> scratch_;
  std::vector<int32_t> rd_codes_;
  std::vector<double> cluster_best_;
  std::vector<int64_t> cluster_best_count_;
  std::vector<double> dense_weights_;
  std::unordered_map<uint32_t, int64_t> count_shifts_;
};

std::unique_ptr<MeasureState> BoundPrl::BindState(const Dataset& masked) const {
  // The compressed histograms hold at most one bucket per distinct pattern a
  // record actually meets (<= n each), so the state serves any attribute
  // count the measure accepts — no dense-layout attribute cap, no memory
  // cliff.
  return std::make_unique<ClusteredPrlState>(this, masked);
}

}  // namespace

Result<std::unique_ptr<BoundMeasure>> ProbabilisticRecordLinkage::Bind(
    const Dataset& original, const std::vector<int>& attrs) const {
  if (attrs.size() > 20) {
    return Status::Invalid("PRL agreement patterns limited to 20 attributes");
  }
  return std::unique_ptr<BoundMeasure>(
      new BoundPrl(original, attrs, em_iterations_));
}

void RegisterPrlMeasure(MeasureRegistry* registry) {
  registry->Register(
      "PRL", [](const ParamMap& params) -> Result<std::unique_ptr<Measure>> {
        ParamReader reader("PRL", params);
        int64_t em_iterations = reader.GetInt("em_iterations", 50);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        if (em_iterations < 1 ||
            em_iterations > std::numeric_limits<int>::max()) {
          return Status::Invalid("PRL.em_iterations must be in [1, ",
                                 std::numeric_limits<int>::max(), "], got ",
                                 em_iterations);
        }
        return std::unique_ptr<Measure>(
            new ProbabilisticRecordLinkage(static_cast<int>(em_iterations)));
      });
}

}  // namespace metrics
}  // namespace evocat
