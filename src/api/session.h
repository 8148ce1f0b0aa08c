/// \file session.h
/// \brief The façade's execution engine: JobSpec in, RunArtifacts out.
///
/// A `Session` owns everything a job needs at runtime — dataset loading
/// (with a CSV cache shared across jobs), registry-based method
/// construction, population building, fitness binding and engine execution —
/// and returns structured `RunArtifacts`. `RunBatch` executes a vector of
/// JobSpecs concurrently on the shared worker pool; every job is seeded from
/// its own spec with isolated RNG streams, so batch results are bit-identical
/// to running each job alone.

#ifndef EVOCAT_API_SESSION_H_
#define EVOCAT_API_SESSION_H_

#include <atomic>
#include <cstddef>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/jobspec.h"
#include "common/result.h"
#include "core/engine.h"
#include "metrics/fitness.h"
#include "protection/population_builder.h"

namespace evocat {
namespace api {

/// \brief Min/mean/max of a population's scores.
struct ScoreStats {
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

/// \brief One population member: provenance plus its full breakdown.
struct MemberSummary {
  std::string origin;
  metrics::FitnessBreakdown fitness;
};

/// \brief Per-run telemetry captured when `outputs.telemetry` is on: stage
/// wall times, the per-generation timing series, and a snapshot of the
/// process-wide counter totals at run end. Pure observation — the run is
/// bit-identical with the section on or off (everything else in
/// `RunArtifacts` is unchanged).
struct TelemetryArtifacts {
  bool enabled = false;
  /// Stage wall seconds: source load, seed protections, fitness bind +
  /// initial evaluation, evolution, and the whole run.
  double load_seconds = 0.0;
  double protect_seconds = 0.0;
  double bind_seconds = 0.0;
  double evolve_seconds = 0.0;
  double total_seconds = 0.0;
  /// Per-generation wall/eval seconds in generation order — carried even
  /// when `outputs.history` is off, so every finished job ships its profile.
  std::vector<double> generation_seconds;
  std::vector<double> generation_eval_seconds;
  /// Counter totals (`name{labels}` -> value) from the process-wide metrics
  /// registry at run end. On a daemon running concurrent jobs these
  /// aggregate across jobs; the series above are this run's alone.
  std::vector<std::pair<std::string, int64_t>> counters;
};

/// \brief Everything a caller can want back from one job.
struct RunArtifacts {
  std::string job_name;
  /// Dataset label: the synthetic profile name or the CSV path.
  std::string dataset;
  /// The spec as executed, with all stage seeds made explicit — serializing
  /// this spec reproduces the run exactly.
  JobSpec spec;
  std::vector<int> protected_attrs;
  int64_t num_rows = 0;
  /// Population size after any best-removal (always set, unlike the
  /// population vectors below, which respect the output toggles).
  int64_t population_size = 0;

  /// Initial population after best-removal (empty unless requested).
  std::vector<MemberSummary> initial;
  /// Final population, sorted by ascending score (empty unless requested).
  std::vector<MemberSummary> final_population;
  /// Per-generation trajectory (empty unless requested).
  std::vector<core::GenerationRecord> history;
  core::EvolutionStats stats;
  ScoreStats initial_scores;
  ScoreStats final_scores;

  /// The best individual and its protected file.
  MemberSummary best;
  Dataset best_data;
  /// Fitness evaluations served over the whole run.
  int64_t evaluations = 0;
  /// Stage timings + per-generation series (`outputs.telemetry`).
  TelemetryArtifacts telemetry;
};

/// \brief Cooperative cancellation handle for a running job.
///
/// Flip `cancel` from any thread; the engine polls it between generations
/// and the run returns `Status::Cancelled`. One control governs one run.
struct RunControl {
  std::atomic<bool> cancel{false};
};

/// \brief Executes JobSpecs; reusable across jobs and threads.
class Session {
 public:
  struct Options {
    /// Maximum CSV originals cached across jobs (keyed by path + read
    /// options); the least recently used entry is evicted beyond this. 0
    /// means unbounded (not recommended for long-running daemons).
    size_t max_cached_sources = 8;
  };

  /// \brief Source-cache counters (monotonic over the session's lifetime).
  struct CacheStats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t entries = 0;  ///< current resident originals
  };

  Session() = default;
  explicit Session(Options options) : options_(options) {}

  /// \brief Runs one job end to end. `control` (optional) allows concurrent
  /// cancellation; a canceled run returns `Status::Cancelled`.
  Result<RunArtifacts> Run(const JobSpec& spec,
                           const RunControl* control = nullptr);

  /// \brief Runs every spec concurrently on the work-stealing scheduler.
  ///
  /// Each job is one task on `TaskScheduler::Shared()`; a heavy job's
  /// data-parallel phases (per-grid-point seed protections, per-member
  /// evaluations, measure row loops) split into subtasks that idle workers
  /// steal, so a skewed batch keeps every core busy. Slot i holds job i's
  /// artifacts or the Status explaining its failure; one failing job never
  /// aborts its siblings. Every job is seeded from its own spec, so each
  /// slot is bit-identical to `Run(specs[i])` alone.
  std::vector<Result<RunArtifacts>> RunBatch(const std::vector<JobSpec>& specs);

  /// \brief Current source-cache counters (thread-safe snapshot).
  CacheStats cache_stats() const;

  /// \brief A loaded original plus resolved protected attribute indices.
  struct SourceData {
    Dataset original;
    std::vector<int> attrs;
    /// Dataset label (profile name or CSV path).
    std::string label;
    /// The paper's default population mix for this source (used when the
    /// spec's method roster is empty).
    protection::PopulationSpec default_spec;
  };

  /// \brief Loads/generates the spec's original dataset (shared with the
  /// evaluation tool, which scores external files against it).
  Result<SourceData> LoadSource(const JobSpec& spec);

 private:
  /// \brief Clones a cached original and promotes it to most recent; false
  /// on miss. Counts the hit/miss.
  bool LookupCachedSource(const std::string& key, Dataset* out);
  /// \brief Inserts (or refreshes) a cached original, evicting the least
  /// recently used entries beyond `max_cached_sources`.
  void InsertCachedSource(const std::string& key, Dataset dataset);

  Options options_;
  mutable std::mutex cache_mutex_;
  /// LRU order, most recent first; the index maps cache key -> entry.
  std::list<std::pair<std::string, Dataset>> cache_entries_;
  std::map<std::string, std::list<std::pair<std::string, Dataset>>::iterator>
      cache_index_;
  CacheStats cache_stats_;
};

/// \brief The paper's population mix as a declarative roster (grid order
/// matches `protection::InstantiateMethods` exactly).
std::vector<MethodGridSpec> RosterFromPopulationSpec(
    const protection::PopulationSpec& spec);

}  // namespace api
}  // namespace evocat

#endif  // EVOCAT_API_SESSION_H_
