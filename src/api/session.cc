#include "api/session.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/math_utils.h"
#include "common/params.h"
#include "common/string_utils.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "core/stepper.h"
#include "data/csv.h"
#include "datagen/generator.h"
#include "evolve/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protection/registry.h"

namespace evocat {
namespace api {

namespace {

/// Stage-latency histograms, one series per pipeline stage.
obs::Histogram* StageSecondsHistogram(const char* stage) {
  static obs::Histogram* load = obs::MetricsRegistry::Global().GetHistogram(
      "evocat_session_stage_seconds",
      "Wall time of one session pipeline stage.", {{"stage", "load"}});
  static obs::Histogram* protect = obs::MetricsRegistry::Global().GetHistogram(
      "evocat_session_stage_seconds",
      "Wall time of one session pipeline stage.", {{"stage", "protect"}});
  static obs::Histogram* bind = obs::MetricsRegistry::Global().GetHistogram(
      "evocat_session_stage_seconds",
      "Wall time of one session pipeline stage.", {{"stage", "bind"}});
  static obs::Histogram* evolve = obs::MetricsRegistry::Global().GetHistogram(
      "evocat_session_stage_seconds",
      "Wall time of one session pipeline stage.", {{"stage", "evolve"}});
  if (stage[0] == 'l') return load;
  if (stage[0] == 'p') return protect;
  if (stage[0] == 'b') return bind;
  return evolve;
}

obs::Counter* CacheHitsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_csv_cache_hits_total",
      "Source loads served from the session CSV cache.");
  return counter;
}

obs::Counter* CacheMissesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_csv_cache_misses_total",
      "Source loads that had to read and parse the CSV file.");
  return counter;
}

obs::Counter* CacheEvictionsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "evocat_csv_cache_evictions_total",
      "Cached CSV originals evicted by the LRU bound.");
  return counter;
}

MemberSummary Summarize(const core::Individual& individual) {
  MemberSummary summary;
  summary.origin = individual.origin;
  summary.fitness = individual.fitness;
  return summary;
}

ScoreStats StatsOf(const std::vector<core::Individual>& members) {
  ScoreStats stats;
  std::vector<double> scores;
  scores.reserve(members.size());
  for (const auto& m : members) scores.push_back(m.fitness.score);
  stats.min = Min(scores);
  stats.mean = Mean(scores);
  stats.max = Max(scores);
  return stats;
}

void AppendGrid(std::vector<MethodGridSpec>* roster, const std::string& name,
                std::vector<std::pair<std::string, std::vector<std::string>>>
                    grid) {
  for (const auto& [key, values] : grid) {
    (void)key;
    if (values.empty()) return;  // empty dimension -> no instances
  }
  if (grid.empty()) return;
  MethodGridSpec method;
  method.name = name;
  method.grid = std::move(grid);
  roster->push_back(std::move(method));
}

std::vector<std::string> IntValues(const std::vector<int>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (int v : values) out.push_back(std::to_string(v));
  return out;
}

std::vector<std::string> DoubleValues(const std::vector<double>& values) {
  std::vector<std::string> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(FormatDouble(v));
  return out;
}

/// Default population mix keyed by synthetic case name; anything else
/// (CSV files, custom profiles) gets the generic Adult mix.
protection::PopulationSpec DefaultSpecFor(const std::string& case_name) {
  if (case_name == "housing") return protection::HousingPopulationSpec();
  if (case_name == "german" || case_name == "flare") {
    return protection::GermanFlarePopulationSpec();
  }
  return protection::AdultPopulationSpec();
}

}  // namespace

std::vector<MethodGridSpec> RosterFromPopulationSpec(
    const protection::PopulationSpec& spec) {
  std::vector<MethodGridSpec> roster;
  std::vector<std::string> orderings;
  orderings.reserve(spec.microagg_orderings.size());
  for (protection::MicroOrdering ordering : spec.microagg_orderings) {
    orderings.push_back(protection::MicroOrderingToString(ordering));
  }
  // Grid order mirrors protection::InstantiateMethods: k outermost, then
  // ordering; method families in the same sequence.
  AppendGrid(&roster, "microaggregation",
             {{"k", IntValues(spec.microagg_ks)}, {"ordering", orderings}});
  AppendGrid(&roster, "bottomcoding",
             {{"fraction", DoubleValues(spec.bottom_fractions)}});
  AppendGrid(&roster, "topcoding",
             {{"fraction", DoubleValues(spec.top_fractions)}});
  AppendGrid(&roster, "globalrecoding",
             {{"group_size", IntValues(spec.recoding_group_sizes)}});
  AppendGrid(&roster, "rankswapping",
             {{"p_percent", DoubleValues(spec.rankswap_percents)}});
  AppendGrid(&roster, "pram", {{"retain", DoubleValues(spec.pram_retains)}});
  return roster;
}

Result<Session::SourceData> Session::LoadSource(const JobSpec& spec) {
  SourceData source;
  if (spec.source.kind == SourceSpec::Kind::kCsv) {
    CsvReadOptions csv_options;
    csv_options.has_header = spec.source.has_header;
    csv_options.separator = spec.source.separator[0];
    for (const auto& name : spec.source.ordinal_attributes) {
      csv_options.ordinal_attributes.insert(name);
    }
    std::string cache_key = spec.source.path + "\n" + spec.source.separator +
                            (spec.source.has_header ? "H" : "-") + "\n" +
                            Join(spec.source.ordinal_attributes, ',');
    if (!LookupCachedSource(cache_key, &source.original)) {
      EVOCAT_ASSIGN_OR_RETURN(source.original,
                              ReadCsvFile(spec.source.path, csv_options));
      InsertCachedSource(cache_key, source.original.Clone());
    }
    source.label = spec.source.path;
    source.default_spec = protection::AdultPopulationSpec();
    EVOCAT_ASSIGN_OR_RETURN(
        source.attrs,
        source.original.schema().IndicesOf(spec.protected_attributes));
    return source;
  }

  datagen::SyntheticProfile profile;
  if (spec.source.has_inline_profile) {
    profile = spec.source.profile;
  } else {
    EVOCAT_ASSIGN_OR_RETURN(profile,
                            datagen::ProfileByName(spec.source.case_name));
  }
  EVOCAT_ASSIGN_OR_RETURN(source.original,
                          datagen::Generate(profile, spec.seeds.DataSeed()));
  source.label = profile.name;
  source.default_spec = DefaultSpecFor(spec.source.has_inline_profile
                                           ? std::string()
                                           : spec.source.case_name);
  const std::vector<std::string>& names = spec.protected_attributes.empty()
                                              ? profile.protected_attributes
                                              : spec.protected_attributes;
  EVOCAT_ASSIGN_OR_RETURN(source.attrs,
                          source.original.schema().IndicesOf(names));
  return source;
}

bool Session::LookupCachedSource(const std::string& key, Dataset* out) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) {
    ++cache_stats_.misses;
    CacheMissesCounter()->Increment();
    return false;
  }
  cache_entries_.splice(cache_entries_.begin(), cache_entries_, it->second);
  *out = it->second->second.Clone();
  ++cache_stats_.hits;
  CacheHitsCounter()->Increment();
  return true;
}

void Session::InsertCachedSource(const std::string& key, Dataset dataset) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_index_.find(key);
  if (it != cache_index_.end()) {
    // A concurrent job loaded the same source first; refresh recency only.
    cache_entries_.splice(cache_entries_.begin(), cache_entries_, it->second);
    return;
  }
  cache_entries_.emplace_front(key, std::move(dataset));
  cache_index_[key] = cache_entries_.begin();
  if (options_.max_cached_sources > 0) {
    while (cache_entries_.size() > options_.max_cached_sources) {
      cache_index_.erase(cache_entries_.back().first);
      cache_entries_.pop_back();
      ++cache_stats_.evictions;
      CacheEvictionsCounter()->Increment();
    }
  }
}

Session::CacheStats Session::cache_stats() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  CacheStats stats = cache_stats_;
  stats.entries = static_cast<int64_t>(cache_entries_.size());
  return stats;
}

Result<RunArtifacts> Session::Run(const JobSpec& input_spec,
                                  const RunControl* control) {
  EVOCAT_RETURN_NOT_OK(input_spec.Validate());
  if (control != nullptr && control->cancel.load(std::memory_order_relaxed)) {
    return Status::Cancelled("job canceled before execution started");
  }
  JobSpec spec = input_spec;
  spec.seeds.MakeExplicit();

  // Stage timing is pure observation: relaxed counter bumps and steady-clock
  // reads, no RNG and no data-dependent branches, so a telemetry-on run is
  // bit-identical to a telemetry-off one (oracle-tested).
  Timer run_timer;
  TelemetryArtifacts telemetry;

  // (1) Original dataset + protected attribute indices.
  auto load_span = std::make_unique<obs::TraceSpan>("session.load");
  Timer stage_timer;
  EVOCAT_ASSIGN_OR_RETURN(SourceData source, LoadSource(spec));
  telemetry.load_seconds = stage_timer.ElapsedSeconds();
  load_span.reset();
  StageSecondsHistogram("load")->Observe(telemetry.load_seconds);

  // (2) Method roster: the spec's, or the paper mix for this source.
  std::vector<MethodGridSpec> roster =
      spec.methods.empty() ? RosterFromPopulationSpec(source.default_spec)
                           : spec.methods;
  std::vector<std::unique_ptr<protection::ProtectionMethod>> methods;
  for (size_t i = 0; i < roster.size(); ++i) {
    for (const ParamMap& params : ExpandGrid(roster[i])) {
      auto method =
          protection::MethodRegistry::Global().Create(roster[i].name, params);
      if (!method.ok()) {
        return Status::Invalid("methods[", i, "]: ",
                               method.status().message());
      }
      methods.push_back(std::move(method).ValueOrDie());
    }
  }
  if (methods.empty()) {
    return Status::Invalid("methods: the roster expands to zero instances");
  }

  // Cancellation checkpoints between the expensive stages; inside a stage
  // the engine's per-generation poll takes over.
  auto canceled_at = [control](const char* stage) -> Status {
    if (control != nullptr && control->cancel.load(std::memory_order_relaxed)) {
      return Status::Cancelled("job canceled ", stage);
    }
    return Status::OK();
  };
  EVOCAT_RETURN_NOT_OK(canceled_at("after loading the source"));

  // (3) Seed protections, one forked RNG stream per method instance.
  auto protect_span = std::make_unique<obs::TraceSpan>("session.protect");
  stage_timer.Reset();
  EVOCAT_ASSIGN_OR_RETURN(
      auto protections,
      protection::BuildProtectionsWith(source.original, source.attrs, methods,
                                       spec.seeds.ProtectionSeed()));
  telemetry.protect_seconds = stage_timer.ElapsedSeconds();
  protect_span.reset();
  StageSecondsHistogram("protect")->Observe(telemetry.protect_seconds);
  EVOCAT_RETURN_NOT_OK(canceled_at("after building the seed protections"));

  // (4) Fitness evaluator over the spec's measure configuration; binding and
  // the initial evaluation sweep below are one "bind" telemetry stage.
  auto bind_span = std::make_unique<obs::TraceSpan>("session.bind");
  stage_timer.Reset();
  EVOCAT_ASSIGN_OR_RETURN(auto evaluator,
                          metrics::FitnessEvaluator::Create(
                              source.original, source.attrs,
                              spec.FitnessOptions()));

  std::vector<core::Individual> initial;
  initial.reserve(protections.size());
  for (auto& file : protections) {
    core::Individual individual;
    individual.data = std::move(file.data);
    individual.origin = std::move(file.method_label);
    initial.push_back(std::move(individual));
  }

  // Score the seeds now: callers want the initial cloud, and best-removal
  // needs scores. Binding each member's delta state gives the same score as
  // the full O(n²)-per-linkage-measure oracle, the strategy reuses the bind,
  // and at 10^5+ rows this is the difference between seconds and hours of
  // seeding. The bind polls the cancel flag per member.
  EVOCAT_RETURN_NOT_OK(core::EvaluateInitialPopulation(
      evaluator.get(), &initial, nullptr,
      control != nullptr ? &control->cancel : nullptr));
  std::stable_sort(initial.begin(), initial.end(),
                   [](const core::Individual& a, const core::Individual& b) {
                     return a.score() < b.score();
                   });

  if (spec.remove_best_fraction > 0.0 && initial.size() > 2) {
    auto removed = static_cast<size_t>(
        std::llround(spec.remove_best_fraction *
                     static_cast<double>(initial.size())));
    removed = std::min(removed, initial.size() - 2);  // keep a viable population
    initial.erase(initial.begin(),
                  initial.begin() + static_cast<std::ptrdiff_t>(removed));
  }
  telemetry.bind_seconds = stage_timer.ElapsedSeconds();
  bind_span.reset();
  StageSecondsHistogram("bind")->Observe(telemetry.bind_seconds);

  RunArtifacts artifacts;
  artifacts.job_name = spec.name;
  artifacts.dataset = source.label;
  artifacts.protected_attrs = source.attrs;
  artifacts.num_rows = source.original.num_rows();
  artifacts.population_size = static_cast<int64_t>(initial.size());
  if (spec.outputs.initial_population) {
    artifacts.initial.reserve(initial.size());
    for (const auto& individual : initial) {
      artifacts.initial.push_back(Summarize(individual));
    }
  }
  artifacts.initial_scores = StatsOf(initial);

  // (5) Evolution through the spec's strategy. The default ("generational")
  // delegates straight to core::EvolutionEngine, so specs without a strategy
  // block evolve bit-identically to the pre-strategy façade.
  core::GaConfig config = spec.ga;
  config.seed = spec.seeds.GaSeed();
  EVOCAT_ASSIGN_OR_RETURN(auto strategy,
                          evolve::StrategyRegistry::Global().Create(
                              spec.strategy.name, spec.strategy.params));
  auto evolve_span = std::make_unique<obs::TraceSpan>("session.evolve");
  stage_timer.Reset();
  EVOCAT_ASSIGN_OR_RETURN(
      core::EvolutionResult evolution,
      strategy->Run(evaluator.get(), config, std::move(initial),
                    control != nullptr ? &control->cancel : nullptr));
  telemetry.evolve_seconds = stage_timer.ElapsedSeconds();
  evolve_span.reset();
  StageSecondsHistogram("evolve")->Observe(telemetry.evolve_seconds);

  // Telemetry section: sample the per-generation series before the history
  // vector is (conditionally) moved into the artifacts, then snapshot the
  // registry's counter totals.
  if (spec.outputs.telemetry) {
    telemetry.enabled = true;
    telemetry.total_seconds = run_timer.ElapsedSeconds();
    telemetry.generation_seconds.reserve(evolution.history.size());
    telemetry.generation_eval_seconds.reserve(evolution.history.size());
    for (const auto& record : evolution.history) {
      telemetry.generation_seconds.push_back(record.total_seconds);
      telemetry.generation_eval_seconds.push_back(record.eval_seconds);
    }
    for (const auto& sample : obs::MetricsRegistry::Global().CounterTotals()) {
      telemetry.counters.emplace_back(sample.series, sample.value);
    }
    artifacts.telemetry = std::move(telemetry);
  }

  if (spec.outputs.history) artifacts.history = std::move(evolution.history);
  artifacts.stats = evolution.stats;
  artifacts.final_scores = StatsOf(evolution.population.members());
  if (spec.outputs.final_population) {
    artifacts.final_population.reserve(evolution.population.size());
    for (const auto& individual : evolution.population.members()) {
      artifacts.final_population.push_back(Summarize(individual));
    }
  }
  const core::Individual& best = evolution.population.best();
  artifacts.best = Summarize(best);
  artifacts.best_data = best.data.Clone();
  artifacts.evaluations = evaluator->num_evaluations();
  artifacts.spec = std::move(spec);

  // (6) Requested file outputs.
  if (!artifacts.spec.outputs.best_csv_path.empty()) {
    EVOCAT_RETURN_NOT_OK(
        WriteCsvFile(artifacts.best_data, artifacts.spec.outputs.best_csv_path));
  }
  if (!artifacts.spec.outputs.original_csv_path.empty()) {
    EVOCAT_RETURN_NOT_OK(WriteCsvFile(
        source.original, artifacts.spec.outputs.original_csv_path));
  }
  return artifacts;
}

std::vector<Result<RunArtifacts>> Session::RunBatch(
    const std::vector<JobSpec>& specs) {
  std::vector<Result<RunArtifacts>> results(
      specs.size(), Result<RunArtifacts>(Status::Internal("job not executed")));
  // Each job is one scheduler task; a job's inner ParallelFor loops split
  // into chunks that idle workers steal (see common/task_scheduler.h), so
  // the tail of a skewed batch — one heavy job outliving its siblings —
  // still uses every worker. The caller sleeps in Wait rather than
  // executing, keeping active threads at the worker count.
  TaskScheduler& scheduler = TaskScheduler::Shared();
  TaskScheduler::Group group;
  for (size_t i = 0; i < specs.size(); ++i) {
    scheduler.Submit(&group,
                     [this, &specs, &results, i] { results[i] = Run(specs[i]); });
  }
  scheduler.Wait(&group);
  return results;
}

}  // namespace api
}  // namespace evocat
