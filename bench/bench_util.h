/// \file bench_util.h
/// \brief Shared driver for the paper-figure reproduction binaries.
///
/// Every `fig*` bench runs one experiment from the paper's §3 and prints:
///   1. a header identifying the paper artifact and the expected shape,
///   2. the dispersion series (initial/final (IL, DR) clouds),
///   3. the evolution series (min/mean/max score per generation),
///   4. a paper-style improvement summary.
/// Output is stdout CSV prefixed with series tags so it can be both read and
/// plotted.

#ifndef EVOCAT_BENCH_BENCH_UTIL_H_
#define EVOCAT_BENCH_BENCH_UTIL_H_

#include <string>

#include "api/json.h"
#include "api/session.h"
#include "common/status.h"

namespace evocat {
namespace bench {

/// \brief The benches' base job: the named paper case ("housing" | "german"
/// | "flare" | "adult") under `aggregation`, with the three stage seeds
/// pinned (data 0xDA7A, protection 0x9A5C, GA 42) so every bench run
/// regenerates identical series.
api::JobSpec BenchSpec(const std::string& case_name,
                       metrics::ScoreAggregation aggregation, int generations);

/// \brief One figure-reproduction run: the job plus how to label it.
struct FigureSpec {
  /// e.g. "Figures 1-2: Adult dataset, fitness Eq.1 (mean)".
  std::string title;
  /// Usually `BenchSpec(...)`, plus `remove_best_fraction` for the
  /// robustness figures.
  api::JobSpec job;
  /// The paper's reported numbers for this artifact (free text, printed in
  /// the header so paper-vs-measured is visible in the raw output).
  std::string paper_notes;
};

/// \brief Runs the spec and prints all series; returns a process exit code.
int RunFigureBench(const FigureSpec& spec);

/// \brief Writes `json` to `path` (overwrites), pretty-printed with a
/// trailing newline. Non-finite numbers come out as `null`.
Status WriteJsonFile(const std::string& path, const api::JsonValue& json);

/// \brief Per-run engine throughput numbers derived from a job's artifacts —
/// the stable schema tracked in BENCH_engine.json across PRs.
api::JsonValue EngineThroughputJson(const api::RunArtifacts& run);

}  // namespace bench
}  // namespace evocat

#endif  // EVOCAT_BENCH_BENCH_UTIL_H_
