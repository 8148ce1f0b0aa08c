// perfbench_runner — the benchmark's in-process half. `perfbench/run.py`
// drives it; every job runs in its own runner process, so a crash costs one
// job, never the workload.
//
//   perfbench_runner ready
//       Start a Session and its scheduler, print the ready line, exit
//       (set-up samples only).
//   perfbench_runner job --spec=F
//       Print the ready line, run the JobSpec in F through Session::Run and
//       print the run line with the best file's reported breakdown.
//   perfbench_runner check --input=F
//       Oracle check: F holds one JSON object per line ({"spec", "best_csv",
//       "best", "pair"}); each best file is re-scored with
//       FitnessEvaluator::Evaluate and compared against the breakdown the
//       job reported, and records sharing a "pair" key (same-seed jobs)
//       must hold identical best files (Dataset::SameCodes).
//   perfbench_runner profile --rows=N
//       Print the JobSpec "source" object of an inline Adult profile with N
//       rows.
//   perfbench_runner trace --spec=F --phase=layers|engine|session --out=F
//       Replay one job through the public calls of each module with spans
//       recorded around every call; write the spans and the derived layer
//       metrics to --out.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/artifacts_json.h"
#include "api/json.h"
#include "api/jobspec.h"
#include "api/session.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/params.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "core/engine.h"
#include "core/operators.h"
#include "core/stepper.h"
#include "data/csv.h"
#include "data/packed_column.h"
#include "datagen/profile.h"
#include "evolve/registry.h"
#include "metrics/fitness.h"
#include "metrics/registry.h"
#include "protection/population_builder.h"
#include "protection/registry.h"
#include "server/wal.h"

namespace evocat {
namespace {

using api::JsonValue;
using Clock = std::chrono::steady_clock;

constexpr double kOracleTolerance = 1e-9;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintLine(const JsonValue& json) {
  std::printf("%s\n", json.Dump().c_str());
  std::fflush(stdout);
}

int Fail(const Status& status) {
  JsonValue json = JsonValue::MakeObject();
  json.Set("ok", JsonValue::MakeBool(false));
  json.Set("status", JsonValue::MakeString(status.ToString()));
  PrintLine(json);
  return 3;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read ", path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Ready line: the process can accept its first job from here on.
void AnnounceReady() {
  TaskScheduler& scheduler = TaskScheduler::Shared();
  JsonValue json = JsonValue::MakeObject();
  json.Set("ready", JsonValue::MakeBool(true));
  json.Set("workers", JsonValue::MakeInt(scheduler.num_workers()));
  json.Set("simd", JsonValue::MakeBool(PackedColumn::SimdEnabled()));
  PrintLine(json);
}

/// Largest absolute difference between two breakdowns over every measure,
/// IL, DR and the score (NaN == NaN for disabled measures; NaN vs a number
/// is an infinite difference).
double MaxBreakdownDiff(const metrics::FitnessBreakdown& a,
                        const metrics::FitnessBreakdown& b) {
  const double pairs[][2] = {
      {a.ctbil, b.ctbil}, {a.dbil, b.dbil}, {a.ebil, b.ebil}, {a.id, b.id},
      {a.dbrl, b.dbrl},   {a.prl, b.prl},   {a.rsrl, b.rsrl}, {a.il, b.il},
      {a.dr, b.dr},       {a.score, b.score}};
  double worst = 0.0;
  for (const auto& pair : pairs) {
    if (std::isnan(pair[0]) && std::isnan(pair[1])) continue;
    double diff = std::fabs(pair[0] - pair[1]);
    worst = std::max(worst, std::isnan(diff) ? INFINITY : diff);
  }
  return worst;
}

Result<Dataset> ReadBestCsv(const std::string& text, const Dataset& original) {
  std::istringstream in(text);
  CsvReadOptions options;
  options.bind_schema = original.schema_ptr();
  return ReadCsvStream(in, options);
}

// ---------------------------------------------------------------------------
// job
// ---------------------------------------------------------------------------

int RunJob(const std::string& spec_path) {
  api::Session session;
  AnnounceReady();
  TaskScheduler& scheduler = TaskScheduler::Shared();
  const int64_t steals_before = scheduler.steal_count();

  // Submit = parse the spec + Session::Run; artifacts in hand = Run returns.
  auto submitted = Clock::now();
  auto text = ReadFile(spec_path);
  if (!text.ok()) return Fail(text.status());
  auto spec = api::JobSpec::FromJsonText(text.ValueOrDie());
  if (!spec.ok()) return Fail(spec.status());
  auto run = session.Run(spec.ValueOrDie());
  auto done = Clock::now();
  const double peak_rss_mb = PeakRssMb();
  if (!run.ok()) return Fail(run.status());
  const api::RunArtifacts& artifacts = run.ValueOrDie();

  api::ArtifactsJsonOptions options;
  options.include_best_csv = false;
  const JsonValue artifacts_json = api::ArtifactsToJson(artifacts, options);
  const JsonValue* best = artifacts_json.Find("best");
  JsonValue json = JsonValue::MakeObject();
  json.Set("ok", JsonValue::MakeBool(true));
  json.Set("job_s", JsonValue::MakeNumber(Seconds(submitted, done)));
  json.Set("generations",
           JsonValue::MakeInt(artifacts.stats.mutation_generations +
                              artifacts.stats.crossover_generations));
  json.Set("best", best != nullptr && best->Find("fitness") != nullptr
                       ? *best->Find("fitness")
                       : JsonValue::MakeNull());
  json.Set("steals", JsonValue::MakeInt(scheduler.steal_count() - steals_before));
  json.Set("peak_rss_mb", JsonValue::MakeNumber(peak_rss_mb));
  PrintLine(json);
  return 0;
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

metrics::FitnessBreakdown BreakdownFromJson(const JsonValue& json) {
  auto field = [&](const char* key) -> double {
    const JsonValue* value = json.Find(key);
    if (value == nullptr || !value->is_number()) return NAN;
    return value->is_integer() ? static_cast<double>(value->int_value())
                               : value->number_value();
  };
  metrics::FitnessBreakdown b;
  b.ctbil = field("ctbil");
  b.dbil = field("dbil");
  b.ebil = field("ebil");
  b.id = field("id");
  b.dbrl = field("dbrl");
  b.prl = field("prl");
  b.rsrl = field("rsrl");
  b.il = field("il");
  b.dr = field("dr");
  b.score = field("score");
  return b;
}

/// Checks one result record: returns the largest oracle difference, or an
/// error when the record cannot be checked or its same-seed partner's best
/// file differs.
Result<double> CheckRecord(const JsonValue& record, api::Session* session,
                           std::map<std::string, Dataset>* first_of_pair) {
  const JsonValue* spec_json = record.Find("spec");
  const JsonValue* csv = record.Find("best_csv");
  const JsonValue* best = record.Find("best");
  if (spec_json == nullptr || csv == nullptr || !csv->is_string() ||
      best == nullptr) {
    return Status::Invalid("record lacks spec, best_csv or best");
  }
  EVOCAT_ASSIGN_OR_RETURN(api::JobSpec spec, api::JobSpec::FromJson(*spec_json));
  EVOCAT_ASSIGN_OR_RETURN(api::Session::SourceData source,
                          session->LoadSource(spec));
  EVOCAT_ASSIGN_OR_RETURN(Dataset masked,
                          ReadBestCsv(csv->string_value(), source.original));
  EVOCAT_ASSIGN_OR_RETURN(auto evaluator,
                          metrics::FitnessEvaluator::Create(
                              source.original, source.attrs,
                              spec.FitnessOptions()));
  const double diff =
      MaxBreakdownDiff(evaluator->Evaluate(masked), BreakdownFromJson(*best));
  const JsonValue* pair = record.Find("pair");
  if (pair != nullptr && pair->is_string()) {
    auto first = first_of_pair->find(pair->string_value());
    if (first == first_of_pair->end()) {
      first_of_pair->emplace(pair->string_value(), std::move(masked));
    } else if (!first->second.SameCodes(masked)) {
      return Status::Invalid("same-seed best files differ");
    }
  }
  return diff;
}

int RunCheck(const std::string& input) {
  std::ifstream in(input);
  if (!in) return Fail(Status::IOError("cannot read ", input));
  api::Session session;
  std::map<std::string, Dataset> first_of_pair;
  int64_t checked = 0, failed = 0;
  double worst = 0.0;
  std::string first_error;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++checked;
    auto record = JsonValue::Parse(line);
    Result<double> diff =
        record.ok() ? CheckRecord(record.ValueOrDie(), &session, &first_of_pair)
                    : Result<double>(record.status());
    if (diff.ok()) worst = std::max(worst, diff.ValueOrDie());
    if (diff.ok() && diff.ValueOrDie() <= kOracleTolerance) continue;
    ++failed;
    if (first_error.empty()) {
      first_error = diff.ok() ? "oracle differs by " +
                                    FormatDouble(diff.ValueOrDie())
                              : diff.status().ToString();
    }
  }
  JsonValue json = JsonValue::MakeObject();
  json.Set("ok", JsonValue::MakeBool(true));
  json.Set("checked", JsonValue::MakeInt(checked));
  json.Set("failed", JsonValue::MakeInt(failed));
  json.Set("oracle_max_diff", JsonValue::MakeNumber(worst));
  if (!first_error.empty()) {
    json.Set("first_error", JsonValue::MakeString(first_error));
  }
  PrintLine(json);
  return 0;
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

/// In-memory span recorder: spans are kept until the phase ends, then
/// written out in one piece. Parents follow the scope nesting.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name)
        : tracer_(tracer), start_(Clock::now()) {
      index_ = tracer_->Open(std::move(name));
    }
    ~Scope() { tracer_->Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    double seconds() const { return Seconds(start_, Clock::now()); }

   private:
    Tracer* tracer_;
    Clock::time_point start_;
    int index_ = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int Open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = Seconds(origin_, Clock::now());
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end = Seconds(origin_, Clock::now());
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Layer numbers by metric name: one sample per timed call (seconds) or
/// per count.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  JsonValue ToJson() const {
    JsonValue json = JsonValue::MakeObject();
    for (const auto& [name, values] : samples_) {
      JsonValue array = JsonValue::MakeArray();
      for (double v : values) array.Append(JsonValue::MakeNumber(v));
      json.Set(name, std::move(array));
    }
    return json;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Everything a phase needs about the job: the spec, its source, methods,
/// evaluator and bound initial population.
struct Replay {
  api::JobSpec spec;
  api::Session session;
  api::Session::SourceData source;
  std::vector<std::unique_ptr<protection::ProtectionMethod>> methods;
  std::unique_ptr<metrics::FitnessEvaluator> evaluator;
  std::vector<core::Individual> initial;
};

/// Binds every member's fitness state across the pool, as Session::Run
/// does for the initial population.
void BindAll(const metrics::FitnessEvaluator& evaluator,
             std::vector<core::Individual>* members) {
  ParallelFor(0, static_cast<int64_t>(members->size()), [&](int64_t i) {
    core::Individual& member = (*members)[static_cast<size_t>(i)];
    member.eval_state = evaluator.BindState(member.data);
    member.fitness = member.eval_state->breakdown();
  });
}

Status PrepareReplay(Tracer* tracer, LayerSamples* samples, Replay* replay) {
  {
    Tracer::Scope span(tracer, "api.load");
    EVOCAT_ASSIGN_OR_RETURN(replay->source,
                            replay->session.LoadSource(replay->spec));
    samples->Add("api.load_s", span.seconds());
  }
  std::vector<api::MethodGridSpec> roster =
      replay->spec.methods.empty()
          ? api::RosterFromPopulationSpec(replay->source.default_spec)
          : replay->spec.methods;
  for (const auto& entry : roster) {
    for (const ParamMap& params : api::ExpandGrid(entry)) {
      EVOCAT_ASSIGN_OR_RETURN(
          auto method,
          protection::MethodRegistry::Global().Create(entry.name, params));
      replay->methods.push_back(std::move(method));
    }
  }
  std::vector<protection::ProtectedFile> files;
  {
    Tracer::Scope span(tracer, "protection.build");
    EVOCAT_ASSIGN_OR_RETURN(
        files, protection::BuildProtectionsWith(
                   replay->source.original, replay->source.attrs,
                   replay->methods, replay->spec.seeds.ProtectionSeed()));
    samples->Add("protection.build_s", span.seconds());
  }
  {
    Tracer::Scope span(tracer, "metrics.create");
    EVOCAT_ASSIGN_OR_RETURN(
        replay->evaluator,
        metrics::FitnessEvaluator::Create(replay->source.original,
                                          replay->source.attrs,
                                          replay->spec.FitnessOptions()));
    samples->Add("metrics.create_s", span.seconds());
  }
  for (auto& file : files) {
    core::Individual member;
    member.data = std::move(file.data);
    member.origin = std::move(file.method_label);
    replay->initial.push_back(std::move(member));
  }
  {
    Tracer::Scope span(tracer, "metrics.bind");
    BindAll(*replay->evaluator, &replay->initial);
    samples->Add("metrics.bind_s", span.seconds());
  }
  std::stable_sort(replay->initial.begin(), replay->initial.end(),
                   [](const core::Individual& a, const core::Individual& b) {
                     return a.score() < b.score();
                   });
  return Status::OK();
}

struct MeasureConfig {
  const char* name;
  ParamMap params;
};

/// The enabled measures with the parameters FitnessEvaluator::Create binds
/// them with (its bound measures are private, so the replay binds its own).
std::vector<MeasureConfig> MeasureConfigs(const api::JobSpec& spec) {
  metrics::FitnessEvaluator::Options o = spec.FitnessOptions();
  std::vector<MeasureConfig> configs;
  auto add = [&](bool on, const char* name, ParamMap params) {
    if (on) configs.push_back({name, std::move(params)});
  };
  add(o.use_ctbil, "ctbil",
      {{"max_dimension", std::to_string(o.ctbil_max_dimension)}});
  add(o.use_dbil, "dbil", {});
  add(o.use_ebil, "ebil", {});
  add(o.use_id, "id", {{"window_percent", FormatDouble(o.id_window_percent)}});
  add(o.use_dbrl, "dbrl", {});
  add(o.use_prl, "prl", {{"em_iterations", std::to_string(o.prl_em_iterations)}});
  add(o.use_rsrl, "rsrl",
      {{"assumed_p_percent", FormatDouble(o.rsrl_assumed_p_percent)}});
  return configs;
}

// Replay sizes: crossover legs the operator draws, and one-cell segments,
// each applied and reverted once per measure.
constexpr int kDrawnLegs = 16;
constexpr int kCellSegments = 64;

/// One operator-produced segment plus the genome it leads to.
struct Leg {
  Dataset after;
  metrics::SegmentDelta segment;
};

/// Layers phase: load, protect, create, bind, the oracle, per-measure
/// apply/revert on crossover legs and one-cell segments (each measure's
/// MeasureState driven alone, one measure at a time), and a WAL append.
Status PhaseLayers(Tracer* tracer, LayerSamples* samples, Replay* replay,
                   const std::string& scratch) {
  EVOCAT_RETURN_NOT_OK(PrepareReplay(tracer, samples, replay));
  const Dataset& original = replay->source.original;
  const std::vector<int>& attrs = replay->source.attrs;
  const Dataset& parent = replay->initial.front().data;
  {
    Tracer::Scope span(tracer, "metrics.evaluate");
    replay->evaluator->Evaluate(parent);
    samples->Add("metrics.evaluate_s", span.seconds());
  }

  core::GenomeLayout layout(attrs, original.num_rows());
  Rng rng(replay->spec.seeds.GaSeed());
  // Legs the public CrossoverOperator draws, then four fixed-size legs (2%,
  // 5%, 50% and 90% of the genome) so every measure's delta and rebuild
  // paths are timed whatever the draw; rebuild_share counts drawn legs only.
  std::vector<Leg> legs, cells;
  core::CrossoverOperator crossover(layout);
  auto mate_of = [&](int i) -> const Dataset& {
    return replay->initial[1 + static_cast<size_t>(i) %
                                   (replay->initial.size() - 1)]
        .data;
  };
  for (int i = 0; i < kDrawnLegs; ++i) {
    Dataset z1, z2;
    Tracer::Scope span(tracer, "core.crossover");
    core::CrossoverOperator::Record record =
        crossover.Apply(parent, mate_of(i), &z1, &z2, &rng);
    samples->Add("core.crossover_s", span.seconds());
    samples->Add("metrics.leg_cells",
                 static_cast<double>(record.deltas1.num_cells()));
    legs.push_back({std::move(z1), std::move(record.deltas1)});
  }
  const int64_t length = layout.Length();
  for (double share : {0.02, 0.05, 0.5, 0.9}) {
    const auto size = std::max<int64_t>(
        1, static_cast<int64_t>(share * static_cast<double>(length)));
    const int64_t s = rng.UniformInt(0, length - size);
    Dataset genome = parent.Clone();
    metrics::SegmentDelta segment = core::CrossoverSegmentSwap(
        layout, mate_of(static_cast<int>(legs.size())), &genome, s,
        s + size - 1);
    legs.push_back({std::move(genome), std::move(segment)});
  }
  core::MutationOperator mutation(layout, replay->spec.ga.mutation_excludes_current);
  for (int i = 0; i < kCellSegments; ++i) {
    Dataset genome = parent.Clone();
    Tracer::Scope span(tracer, "core.mutate");
    core::MutationOperator::Record record = mutation.Apply(&genome, &rng);
    samples->Add("core.mutate_s", span.seconds());
    metrics::SegmentDelta segment;
    segment.Append(record.row, record.attr, record.old_code, record.new_code);
    cells.push_back({std::move(genome), std::move(segment)});
  }
  // Build each segment's lazy row view here, single-threaded: every measure
  // is then timed on the same ready segment, and no measure's inner loop
  // races to build it (this replay drives measures one at a time; the
  // product path's concurrent fan-out is what the workloads exercise).
  for (const Leg& leg : legs) leg.segment.rows();
  for (const Leg& leg : cells) leg.segment.rows();

  const int64_t total_cells =
      original.num_rows() * static_cast<int64_t>(attrs.size());
  for (const MeasureConfig& config : MeasureConfigs(replay->spec)) {
    const std::string prefix = std::string("metrics.") + config.name;
    EVOCAT_ASSIGN_OR_RETURN(
        auto measure,
        metrics::MeasureRegistry::Global().Create(config.name, config.params));
    EVOCAT_ASSIGN_OR_RETURN(auto bound, measure->Bind(original, attrs));
    std::unique_ptr<metrics::MeasureState> state = bound->BindState(parent);
    state->set_total_protected_cells(total_cells);
    const int64_t threshold = state->full_rebuild_threshold();
    int rebuilds = 0;
    for (size_t i = 0; i < legs.size(); ++i) {
      const Leg& leg = legs[i];
      const bool rebuild = leg.segment.num_cells() >= threshold;
      if (rebuild && i < static_cast<size_t>(kDrawnLegs)) ++rebuilds;
      {
        Tracer::Scope span(tracer, prefix + ".apply");
        state->ApplySegment(leg.after, leg.segment);
        samples->Add(prefix + (rebuild ? ".apply_s.rebuild" : ".apply_s.delta"),
                     span.seconds());
      }
      Tracer::Scope span(tracer, prefix + ".revert");
      state->RevertSegment();
      samples->Add(prefix + ".revert_s", span.seconds());
    }
    samples->Add(prefix + ".rebuild_share",
                 static_cast<double>(rebuilds) / kDrawnLegs);
    for (const Leg& leg : cells) {
      {
        Tracer::Scope span(tracer, prefix + ".cell.apply");
        state->ApplySegment(leg.after, leg.segment);
        samples->Add(prefix + ".cell.apply_s", span.seconds());
      }
      Tracer::Scope span(tracer, prefix + ".cell.revert");
      state->RevertSegment();
      samples->Add(prefix + ".cell.revert_s", span.seconds());
    }
  }

  const std::string wal_path = scratch + "/trace.wal";
  unlink(wal_path.c_str());
  EVOCAT_ASSIGN_OR_RETURN(auto wal, server::Wal::Open(wal_path));
  for (int i = 0; i < 16; ++i) {
    Tracer::Scope span(tracer, "server.wal_append");
    EVOCAT_RETURN_NOT_OK(
        wal->AppendSubmit("job-" + std::to_string(i + 1), replay->spec));
    samples->Add("server.wal_append_s", span.seconds());
  }
  wal.reset();
  unlink(wal_path.c_str());
  return Status::OK();
}

/// Engine phase: the job's pipeline (load, protect, create, bind, the
/// strategy's Run) traced call by call — its span total against the
/// untraced Session::Run of the session phase is the tracing overhead —
/// then the same generation budget again through GenerationStepper::Step,
/// split by the record's op.
Status PhaseEngine(Tracer* tracer, LayerSamples* samples, Replay* replay) {
  auto start = Clock::now();
  EVOCAT_RETURN_NOT_OK(PrepareReplay(tracer, samples, replay));
  core::GaConfig config = replay->spec.ga;
  config.seed = replay->spec.seeds.GaSeed();
  std::vector<core::Individual> members;
  for (const auto& member : replay->initial) {
    core::Individual copy;
    copy.data = member.data.Clone();
    copy.origin = member.origin;
    members.push_back(std::move(copy));
  }
  EVOCAT_ASSIGN_OR_RETURN(auto strategy,
                          evolve::StrategyRegistry::Global().Create(
                              replay->spec.strategy.name,
                              replay->spec.strategy.params));
  {
    Tracer::Scope span(tracer, "evolve.run");
    EVOCAT_ASSIGN_OR_RETURN(
        core::EvolutionResult result,
        strategy->Run(replay->evaluator.get(), config,
                      std::move(replay->initial), nullptr));
    samples->Add("evolve.run_s", span.seconds());
  }
  samples->Add("trace.traced_job_s", Seconds(start, Clock::now()));

  {
    Tracer::Scope span(tracer, "core.rebind");
    BindAll(*replay->evaluator, &members);
  }
  uint64_t next_id = 0;
  for (auto& member : members) member.id = next_id++;
  core::Population population(std::move(members));
  population.SortByScore();
  Rng rng(config.seed);
  core::EvolutionStats stats;
  core::GenerationStepper stepper(replay->evaluator.get(), config, &population,
                                  &rng, &stats, &next_id);
  for (int generation = 1; generation <= config.generations; ++generation) {
    Tracer::Scope span(tracer, "core.step");
    core::GenerationRecord record = stepper.Step(generation);
    const double seconds = span.seconds();
    samples->Add("core.step_s", seconds);
    samples->Add(record.op == core::OperatorKind::kCrossover
                     ? "core.step_s.crossover"
                     : "core.step_s.mutation",
                 seconds);
  }
  return Status::OK();
}

/// Session phase: the job untraced through Session::Run, three times (the
/// median is the baseline the tracing overhead is taken against), with each
/// run's scheduler steals, then the artifact serialization the server
/// performs for a result fetch.
Status PhaseSession(Tracer* tracer, LayerSamples* samples, Replay* replay) {
  TaskScheduler& scheduler = TaskScheduler::Shared();
  api::RunArtifacts artifacts;
  for (int i = 0; i < 3; ++i) {
    const int64_t steals_before = scheduler.steal_count();
    auto start = Clock::now();
    EVOCAT_ASSIGN_OR_RETURN(artifacts, replay->session.Run(replay->spec));
    samples->Add("trace.untraced_job_s", Seconds(start, Clock::now()));
    samples->Add("common.steals",
                 static_cast<double>(scheduler.steal_count() - steals_before));
  }
  // What the server does for `GET /result?best_csv=0`.
  api::ArtifactsJsonOptions options;
  options.include_best_csv = false;
  for (int i = 0; i < 8; ++i) {
    Tracer::Scope span(tracer, "api.artifacts_json");
    std::string text = api::ArtifactsToJson(artifacts, options).Dump();
    samples->Add("api.artifacts_json_s", span.seconds());
    samples->Add("api.artifacts_bytes", static_cast<double>(text.size()));
  }
  return Status::OK();
}

int RunTrace(const std::string& spec_path, const std::string& phase,
             const std::string& out_path) {
  auto text = ReadFile(spec_path);
  if (!text.ok()) return Fail(text.status());
  Replay replay;
  auto spec = api::JobSpec::FromJsonText(text.ValueOrDie());
  if (!spec.ok()) return Fail(spec.status());
  replay.spec = std::move(spec).ValueOrDie();
  replay.spec.seeds.MakeExplicit();
  replay.spec.outputs.best_csv_path.clear();

  Tracer tracer;
  LayerSamples samples;
  Status status;
  auto start = Clock::now();
  {
    Tracer::Scope root(&tracer, "job." + phase);
    std::string scratch = out_path.substr(0, out_path.find_last_of('/'));
    if (phase == "layers") {
      status = PhaseLayers(&tracer, &samples, &replay, scratch);
    } else if (phase == "engine") {
      status = PhaseEngine(&tracer, &samples, &replay);
    } else if (phase == "session") {
      status = PhaseSession(&tracer, &samples, &replay);
    } else {
      status = Status::Invalid("unknown --phase '", phase, "'");
    }
  }
  if (!status.ok()) return Fail(status);
  const double phase_s = Seconds(start, Clock::now());

  JsonValue spans = JsonValue::MakeArray();
  for (const auto& span : tracer.spans()) {
    JsonValue s = JsonValue::MakeObject();
    s.Set("name", JsonValue::MakeString(span.name));
    s.Set("start", JsonValue::MakeNumber(span.start));
    s.Set("end", JsonValue::MakeNumber(span.end));
    s.Set("parent", JsonValue::MakeInt(span.parent));
    s.Set("job", JsonValue::MakeInt(1));  // a replay is one job
    spans.Append(std::move(s));
  }
  JsonValue json = JsonValue::MakeObject();
  json.Set("phase", JsonValue::MakeString(phase));
  json.Set("phase_s", JsonValue::MakeNumber(phase_s));
  json.Set("samples", samples.ToJson());
  json.Set("spans", std::move(spans));
  std::ofstream out(out_path);
  out << json.Dump() << "\n";
  if (!out) return Fail(Status::IOError("cannot write ", out_path));

  JsonValue line = JsonValue::MakeObject();
  line.Set("ok", JsonValue::MakeBool(true));
  PrintLine(line);
  return 0;
}

int PrintProfileSource(int64_t rows) {
  api::JobSpec spec;
  spec.source.kind = api::SourceSpec::Kind::kSynthetic;
  spec.source.has_inline_profile = true;
  spec.source.profile = datagen::AdultProfile();
  spec.source.profile.num_records = rows;
  const JsonValue json = spec.ToJson();
  const JsonValue* source = json.Find("source");
  if (source == nullptr) return Fail(Status::Internal("spec has no source"));
  PrintLine(*source);
  return 0;
}

}  // namespace
}  // namespace evocat

int main(int argc, char** argv) {
  using evocat::Status;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_runner ready|job|check|profile|trace ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  std::string spec, input, phase, out;
  int64_t rows = 1000;
  evocat::FlagParser parser("perfbench_runner", "benchmark job runner");
  parser.AddString("spec", "JobSpec JSON file", &spec);
  parser.AddString("input", "job results to check (JSON lines)", &input);
  parser.AddString("phase", "trace phase: layers|engine|session", &phase);
  parser.AddString("out", "trace output file", &out);
  parser.AddInt("rows", "rows of the inline profile", &rows);
  Status parsed = parser.Parse(argc - 1, argv + 1);
  if (!parsed.ok()) return evocat::Fail(parsed);

  if (mode == "ready") {
    evocat::api::Session session;
    evocat::AnnounceReady();
    return 0;
  }
  if (mode == "job") return evocat::RunJob(spec);
  if (mode == "check") return evocat::RunCheck(input);
  if (mode == "profile") return evocat::PrintProfileSource(rows);
  if (mode == "trace") {
    return evocat::RunTrace(spec, phase, out);
  }
  return evocat::Fail(Status::Invalid("unknown mode '", mode, "'"));
}
