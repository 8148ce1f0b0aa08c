#include "metrics/plane.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace evocat {
namespace metrics {

namespace {

obs::Histogram* ShardScanSecondsHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "evocat_plane_shard_scan_seconds",
          "Wall time of one ForEachShard fan-out (shard scan + merge fence).");
  return histogram;
}

obs::Counter* ClusterHitsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_plane_cluster_hits_total",
      "Masked-group lookups that landed on an existing pattern cluster.");
  return counter;
}

obs::Counter* ClusterMissesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_plane_cluster_misses_total",
      "Masked-group lookups that created a new pattern cluster.");
  return counter;
}

}  // namespace

int ResolveShardCount() {
  // Only fall back to the shared pool off-scheduler: touching Shared() on a
  // daemon worker would start a second, idle pool beside the daemon's own.
  TaskScheduler* current = TaskScheduler::Current();
  int workers = current != nullptr ? current->num_workers()
                                   : TaskScheduler::Shared().num_workers();
  return workers < 1 ? 1 : workers;
}

RowRange ShardRows(int64_t rows, int shard, int shards) {
  RowRange range;
  range.begin = rows * static_cast<int64_t>(shard) / shards;
  range.end = rows * (static_cast<int64_t>(shard) + 1) / shards;
  return range;
}

void ForEachShard(int64_t rows, int shards,
                  const std::function<void(int, RowRange)>& fn) {
  if (shards < 1) shards = 1;
  const bool timed = obs::MetricsEnabled();
  Timer timer;
  ParallelFor(0, shards, [&](int64_t shard) {
    RowRange range = ShardRows(rows, static_cast<int>(shard), shards);
    // A shard with no rows contributes identity to the merge: it is skipped
    // outright instead of producing a degenerate (NaN-prone) partial.
    if (range.empty()) return;
    fn(static_cast<int>(shard), range);
  }, /*work_per_iteration=*/rows / shards);
  if (timed) ShardScanSecondsHistogram()->Observe(timer.ElapsedSeconds());
}

uint64_t HashCodes(const int32_t* codes, size_t n) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(codes[i])) +
         0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
  }
  return h;
}

namespace {

/// One shard's insertion-ordered pattern table: tuple -> dense local id.
struct LocalPatterns {
  std::unordered_map<uint64_t, std::vector<int32_t>> buckets;
  std::vector<int32_t> codes;  ///< flat local C x A
  std::vector<int64_t> sizes;

  int32_t FindOrCreate(const int32_t* tuple, size_t num_attrs) {
    auto& bucket = buckets[HashCodes(tuple, num_attrs)];
    for (int32_t cand : bucket) {
      if (std::equal(tuple, tuple + num_attrs,
                     codes.begin() +
                         static_cast<size_t>(cand) * num_attrs)) {
        return cand;
      }
    }
    auto id = static_cast<int32_t>(sizes.size());
    codes.insert(codes.end(), tuple, tuple + num_attrs);
    sizes.push_back(0);
    bucket.push_back(id);
    return id;
  }
};

/// Shard-and-merge pattern build shared by PatternIndex and MaskedGroups.
///
/// Per-shard tables record first-occurrence order within their contiguous
/// range; merging them serially in shard index order therefore reproduces
/// the global serial-scan first-occurrence order for any shard count.
/// `row_id` receives temporary local ids during the scan and final global
/// ids after the remap.
void BuildPatterns(const Dataset& dataset, const std::vector<int>& attrs,
                   std::vector<int32_t>* row_id, std::vector<int64_t>* sizes,
                   std::vector<int32_t>* codes,
                   std::unordered_map<uint64_t, std::vector<int32_t>>* buckets) {
  const int64_t rows = dataset.num_rows();
  const size_t num_attrs = attrs.size();
  row_id->assign(static_cast<size_t>(rows), 0);
  if (rows == 0 || num_attrs == 0) return;
  const int shards = ResolveShardCount();

  std::vector<const Dataset::Column*> columns;
  columns.reserve(num_attrs);
  for (int attr : attrs) columns.push_back(&dataset.column(attr));

  std::vector<LocalPatterns> locals(static_cast<size_t>(shards));
  ForEachShard(rows, shards, [&](int shard, RowRange range) {
    LocalPatterns& local = locals[static_cast<size_t>(shard)];
    std::vector<int32_t> tuple(num_attrs);
    for (int64_t r = range.begin; r < range.end; ++r) {
      for (size_t i = 0; i < num_attrs; ++i) {
        tuple[i] = (*columns[i])[static_cast<size_t>(r)];
      }
      int32_t id = local.FindOrCreate(tuple.data(), num_attrs);
      ++local.sizes[static_cast<size_t>(id)];
      (*row_id)[static_cast<size_t>(r)] = id;
    }
  });

  // Serial merge in shard index order: global ids = first-occurrence order.
  std::unordered_map<uint64_t, std::vector<int32_t>> global_buckets;
  std::vector<std::vector<int32_t>> remap(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    LocalPatterns& local = locals[static_cast<size_t>(s)];
    remap[static_cast<size_t>(s)].resize(local.sizes.size());
    for (size_t c = 0; c < local.sizes.size(); ++c) {
      const int32_t* tuple = local.codes.data() + c * num_attrs;
      auto& bucket = global_buckets[HashCodes(tuple, num_attrs)];
      int32_t id = -1;
      for (int32_t cand : bucket) {
        if (std::equal(tuple, tuple + num_attrs,
                       codes->begin() +
                           static_cast<size_t>(cand) * num_attrs)) {
          id = cand;
          break;
        }
      }
      if (id < 0) {
        id = static_cast<int32_t>(sizes->size());
        codes->insert(codes->end(), tuple, tuple + num_attrs);
        sizes->push_back(0);
        bucket.push_back(id);
      }
      (*sizes)[static_cast<size_t>(id)] += local.sizes[c];
      remap[static_cast<size_t>(s)][c] = id;
    }
  }

  ForEachShard(rows, shards, [&](int shard, RowRange range) {
    const std::vector<int32_t>& map = remap[static_cast<size_t>(shard)];
    for (int64_t r = range.begin; r < range.end; ++r) {
      auto& slot = (*row_id)[static_cast<size_t>(r)];
      slot = map[static_cast<size_t>(slot)];
    }
  });

  if (buckets != nullptr) *buckets = std::move(global_buckets);
}

}  // namespace

PatternIndex PatternIndex::Build(const Dataset& dataset,
                                 const std::vector<int>& attrs) {
  PatternIndex index;
  index.num_attrs_ = attrs.size();
  BuildPatterns(dataset, attrs, &index.row_cluster_, &index.sizes_,
                &index.codes_, nullptr);
  return index;
}

MaskedGroups MaskedGroups::Build(const Dataset& masked,
                                 const std::vector<int>& attrs) {
  MaskedGroups groups;
  groups.num_attrs_ = attrs.size();
  BuildPatterns(masked, attrs, &groups.row_group_, &groups.sizes_,
                &groups.codes_, &groups.buckets_);
  return groups;
}

int32_t MaskedGroups::FindOrCreate(const int32_t* codes) {
  auto& bucket = buckets_[HashCodes(codes, num_attrs_)];
  for (int32_t cand : bucket) {
    if (std::equal(codes, codes + num_attrs_,
                   codes_.begin() + static_cast<size_t>(cand) * num_attrs_)) {
      ClusterHitsCounter()->Increment();
      return cand;
    }
  }
  auto id = static_cast<int32_t>(sizes_.size());
  codes_.insert(codes_.end(), codes, codes + num_attrs_);
  sizes_.push_back(0);
  bucket.push_back(id);
  ClusterMissesCounter()->Increment();
  return id;
}

int32_t MaskedGroups::ApplyRow(int64_t row, const int32_t* new_codes,
                               std::vector<Move>* undo) {
  int32_t group = FindOrCreate(new_codes);
  int32_t old_group = row_group_[static_cast<size_t>(row)];
  if (group == old_group) return group;
  --sizes_[static_cast<size_t>(old_group)];
  ++sizes_[static_cast<size_t>(group)];
  row_group_[static_cast<size_t>(row)] = group;
  if (undo != nullptr) undo->push_back(Move{row, old_group});
  return group;
}

void MaskedGroups::UndoMoves(const std::vector<Move>& moves) {
  for (auto it = moves.rbegin(); it != moves.rend(); ++it) {
    int32_t current = row_group_[static_cast<size_t>(it->row)];
    --sizes_[static_cast<size_t>(current)];
    ++sizes_[static_cast<size_t>(it->old_group)];
    row_group_[static_cast<size_t>(it->row)] = it->old_group;
  }
}

}  // namespace metrics
}  // namespace evocat
