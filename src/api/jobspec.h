/// \file jobspec.h
/// \brief Declarative description of one end-to-end protection job.
///
/// A `JobSpec` is the single input of the `evocat::api` façade: it names the
/// dataset source (CSV file or synthetic profile), the protected attributes,
/// the seed-method roster with parameter grids, the measure configuration,
/// the full GA configuration, the seeds, and which artifacts to keep. It
/// parses from and serializes to JSON (see docs/api.md for the schema);
/// validation errors name the offending field (`"ga.mutation_rate"`,
/// `"methods[2].grid.k"`), and unknown fields or enum spellings are rejected
/// rather than ignored.

#ifndef EVOCAT_API_JOBSPEC_H_
#define EVOCAT_API_JOBSPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/json.h"
#include "common/params.h"
#include "common/result.h"
#include "core/engine.h"
#include "datagen/profile.h"
#include "metrics/fitness.h"

namespace evocat {
namespace api {

/// \brief Where the original dataset comes from.
struct SourceSpec {
  enum class Kind { kCsv, kSynthetic };
  Kind kind = Kind::kSynthetic;

  /// CSV source (kind == kCsv).
  std::string path;
  bool has_header = true;
  std::string separator = ",";
  std::vector<std::string> ordinal_attributes;

  /// Synthetic source (kind == kSynthetic): either a named paper profile
  /// ("housing" | "german" | "flare" | "adult") ...
  std::string case_name = "adult";
  /// ... or a full inline profile (takes precedence when set).
  bool has_inline_profile = false;
  datagen::SyntheticProfile profile;
};

/// \brief One roster entry: a registry method name plus a parameter grid.
///
/// The grid maps parameter name -> list of values; the entry expands to the
/// cross product (first key outermost), one method instance per combination.
/// An empty grid yields a single instance with default parameters.
struct MethodGridSpec {
  std::string name;
  std::vector<std::pair<std::string, std::vector<std::string>>> grid;
};

/// \brief Measure toggles, parameters, weights and aggregation.
struct MeasureSpec {
  metrics::ScoreAggregation aggregation = metrics::ScoreAggregation::kMean;
  double il_weight = 0.5;
  /// Enabled measure names (registry spellings); empty = all seven.
  std::vector<std::string> enabled;
  int ctbil_max_dimension = 2;
  double id_window_percent = 10.0;
  double rsrl_assumed_p_percent = 15.0;
  int prl_em_iterations = 50;
};

/// \brief Which evolution strategy schedules the GA step, plus its
/// parameters (see docs/strategies.md).
///
/// `name` is a `evolve::StrategyRegistry` spelling; `params` is the
/// strategy's flat parameter map (e.g. `{"lambda": "8"}` for steady_state,
/// `{"islands": "4", "migration_interval": "25"}` for islands). The default
/// reproduces the paper's generational loop bit-identically.
struct StrategySpec {
  std::string name = "generational";
  ParamMap params;
};

/// \brief Seeds for the three stochastic stages. Unset stage seeds are
/// derived deterministically from `master`, so one number fully reproduces a
/// job while explicit stage seeds allow exact legacy replication.
struct SeedSpec {
  uint64_t master = 42;
  std::optional<uint64_t> data;
  std::optional<uint64_t> protection;
  std::optional<uint64_t> ga;

  uint64_t DataSeed() const;
  uint64_t ProtectionSeed() const;
  uint64_t GaSeed() const;
  /// \brief Pins all three stage seeds to their effective values.
  void MakeExplicit();
};

/// \brief Which artifacts a run keeps/writes.
struct OutputSpec {
  bool initial_population = true;
  bool final_population = true;
  bool history = true;
  /// Carry the telemetry section (stage timings, per-generation timing
  /// series, counter totals) in the artifacts. Pure observation: the run
  /// itself is bit-identical either way.
  bool telemetry = true;
  /// When non-empty, the best protected file is written here as CSV.
  std::string best_csv_path;
  /// When non-empty, the (loaded or generated) original is written here.
  std::string original_csv_path;
};

/// \brief The façade's declarative job description.
struct JobSpec {
  std::string name = "job";
  SourceSpec source;
  /// Protected (quasi-identifier) attribute names; may stay empty for
  /// synthetic sources (the profile's protected set applies).
  std::vector<std::string> protected_attributes;
  /// Seed-method roster; empty = the paper's default mix for the source.
  std::vector<MethodGridSpec> methods;
  MeasureSpec measures;
  /// GA configuration. `ga.seed` is ignored — `seeds` owns all seeding.
  core::GaConfig ga;
  /// Evolution strategy scheduling the GA step (default: the paper's
  /// generational loop).
  StrategySpec strategy;
  /// Fraction of the best initial protections removed before evolution.
  double remove_best_fraction = 0.0;
  SeedSpec seeds;
  OutputSpec outputs;

  /// \brief Parses and validates a spec; errors name the offending field.
  static Result<JobSpec> FromJson(const JsonValue& json);
  static Result<JobSpec> FromJsonText(const std::string& text);
  static Result<JobSpec> FromJsonFile(const std::string& path);

  JsonValue ToJson() const;
  std::string ToJsonText() const { return ToJson().Dump(2) + "\n"; }

  /// \brief Structural validation (also run by FromJson after parsing).
  Status Validate() const;

  /// \brief The measure configuration as evaluator options.
  metrics::FitnessEvaluator::Options FitnessOptions() const;
};

/// \brief Expands a grid to the cross product of its values (first key
/// outermost); a grid-less entry yields one empty parameter map.
std::vector<ParamMap> ExpandGrid(const MethodGridSpec& spec);

}  // namespace api
}  // namespace evocat

#endif  // EVOCAT_API_JOBSPEC_H_
