#include "api/jobspec.h"

#include <fstream>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "common/string_utils.h"
#include "evolve/registry.h"
#include "metrics/registry.h"
#include "protection/registry.h"

namespace evocat {
namespace api {

namespace {

/// Validating reader over one JSON object. Typed getters leave the output
/// untouched for absent keys, record the first type error with the full field
/// path ("ga.mutation_rate"), and `Finish()` rejects unconsumed (unknown)
/// keys by name.
class Fields {
 public:
  Fields(std::string path, const JsonValue& value, Status* status)
      : path_(std::move(path)), value_(&value), status_(status) {
    if (!value.is_object()) {
      Fail("", "expected a JSON object");
      value_ = nullptr;
    }
  }

  bool ok() const { return value_ != nullptr; }

  std::string FieldPath(const std::string& key) const {
    if (key.empty()) return path_.empty() ? "spec" : path_;
    return path_.empty() ? key : path_ + "." + key;
  }

  /// \brief Raw member access (marks the key consumed); nullptr if absent.
  const JsonValue* Get(const std::string& key) {
    consumed_.insert(key);
    return value_ ? value_->Find(key) : nullptr;
  }

  void String(const std::string& key, std::string* out) {
    const JsonValue* v = Get(key);
    if (!v) return;
    if (!v->is_string()) return Fail(key, "expected a string");
    *out = v->string_value();
  }

  void Bool(const std::string& key, bool* out) {
    const JsonValue* v = Get(key);
    if (!v) return;
    if (!v->is_bool()) return Fail(key, "expected true or false");
    *out = v->bool_value();
  }

  void Double(const std::string& key, double* out) {
    const JsonValue* v = Get(key);
    if (!v) return;
    if (!v->is_number()) return Fail(key, "expected a number");
    *out = v->number_value();
  }

  void Int(const std::string& key, int* out) {
    const JsonValue* v = Get(key);
    if (!v) return;
    if (!v->is_integer()) return Fail(key, "expected an integer");
    if (v->int_value() < INT32_MIN || v->int_value() > INT32_MAX) {
      return Fail(key, "integer out of range");
    }
    *out = static_cast<int>(v->int_value());
  }

  void Int64(const std::string& key, int64_t* out) {
    const JsonValue* v = Get(key);
    if (!v) return;
    if (!v->is_integer()) return Fail(key, "expected an integer");
    *out = v->int_value();
  }

  /// Seeds are full 64-bit: accepted as a JSON integer or a decimal string
  /// (the serializer emits a string above int64 range).
  void Uint64(const std::string& key, uint64_t* out) {
    const JsonValue* v = Get(key);
    if (!v) return;
    uint64_t value = 0;
    if (!DecodeUint64(*v, &value)) {
      return Fail(key, "expected a non-negative integer");
    }
    *out = value;
  }

  void OptUint64(const std::string& key, std::optional<uint64_t>* out) {
    const JsonValue* v = Get(key);
    if (!v || v->is_null()) return;
    uint64_t value = 0;
    if (!DecodeUint64(*v, &value)) {
      return Fail(key, "expected a non-negative integer");
    }
    *out = value;
  }

  static bool DecodeUint64(const JsonValue& v, uint64_t* out) {
    if (v.is_integer() && v.int_value() >= 0) {
      *out = static_cast<uint64_t>(v.int_value());
      return true;
    }
    if (v.is_string() && !v.string_value().empty()) {
      const std::string& text = v.string_value();
      uint64_t value = 0;
      for (char c : text) {
        if (c < '0' || c > '9') return false;
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10) return false;  // overflow
        value = value * 10 + digit;
      }
      *out = value;
      return true;
    }
    return false;
  }

  void StringList(const std::string& key, std::vector<std::string>* out) {
    const JsonValue* v = Get(key);
    if (!v) return;
    if (!v->is_array()) return Fail(key, "expected an array of strings");
    out->clear();
    for (size_t i = 0; i < v->size(); ++i) {
      if (!v->at(i).is_string()) {
        return Fail(key + "[" + std::to_string(i) + "]", "expected a string");
      }
      out->push_back(v->at(i).string_value());
    }
  }

  void Fail(const std::string& key, const std::string& detail) {
    if (status_->ok()) {
      *status_ = Status::Invalid(FieldPath(key), ": ", detail);
    }
  }

  /// \brief Rejects any key that no getter consumed.
  void Finish() {
    if (!value_) return;
    for (const auto& [key, member] : value_->members()) {
      (void)member;
      if (!consumed_.count(key)) {
        if (status_->ok()) {
          *status_ = Status::Invalid("unknown field '", FieldPath(key), "'");
        }
        return;
      }
    }
  }

 private:
  std::string path_;
  const JsonValue* value_;
  Status* status_;
  std::set<std::string> consumed_;
};

/// Scalar grid value -> canonical parameter string.
Status ScalarToString(const JsonValue& value, std::string* out) {
  switch (value.type()) {
    case JsonValue::Type::kString:
      *out = value.string_value();
      return Status::OK();
    case JsonValue::Type::kNumber:
      *out = value.is_integer() ? std::to_string(value.int_value())
                                : FormatDouble(value.number_value());
      return Status::OK();
    case JsonValue::Type::kBool:
      *out = value.bool_value() ? "true" : "false";
      return Status::OK();
    default:
      return Status::Invalid("expected a string, number or boolean");
  }
}

void ParseSource(const std::string& path, const JsonValue& json,
                 SourceSpec* source, Status* status) {
  Fields f(path, json, status);
  std::string kind;
  f.String("kind", &kind);
  if (!kind.empty()) {
    if (kind == "csv") {
      source->kind = SourceSpec::Kind::kCsv;
    } else if (kind == "synthetic") {
      source->kind = SourceSpec::Kind::kSynthetic;
    } else {
      f.Fail("kind", "unknown source kind '" + kind +
                         "'; expected csv|synthetic");
    }
  }
  f.String("path", &source->path);
  f.Bool("has_header", &source->has_header);
  f.String("separator", &source->separator);
  f.StringList("ordinal_attributes", &source->ordinal_attributes);
  bool case_present = f.Get("case") != nullptr;
  f.String("case", &source->case_name);
  bool profile_present = false;
  if (const JsonValue* profile = f.Get("profile")) {
    profile_present = true;
    source->has_inline_profile = true;
    Fields p(f.FieldPath("profile"), *profile, status);
    p.String("name", &source->profile.name);
    p.Int64("num_records", &source->profile.num_records);
    if (const JsonValue* attributes = p.Get("attributes")) {
      if (!attributes->is_array()) {
        p.Fail("attributes", "expected an array of attribute objects");
      } else {
        source->profile.attributes.clear();
        for (size_t i = 0; i < attributes->size(); ++i) {
          std::string attr_path =
              p.FieldPath("attributes") + "[" + std::to_string(i) + "]";
          Fields a(attr_path, attributes->at(i), status);
          datagen::SyntheticAttribute attribute;
          a.String("name", &attribute.name);
          std::string attr_kind;
          a.String("kind", &attr_kind);
          if (attr_kind == "ordinal") {
            attribute.kind = AttrKind::kOrdinal;
          } else if (!attr_kind.empty() && attr_kind != "nominal") {
            a.Fail("kind", "unknown attribute kind '" + attr_kind +
                               "'; expected nominal|ordinal");
          }
          a.Int("cardinality", &attribute.cardinality);
          a.Double("zipf_s", &attribute.zipf_s);
          a.Double("latent_weight", &attribute.latent_weight);
          a.Finish();
          source->profile.attributes.push_back(std::move(attribute));
        }
      }
    }
    p.StringList("protected_attributes",
                 &source->profile.protected_attributes);
    p.Finish();
  }
  // Mirror of the csv-only-field guard in Validate: synthetic-only fields on
  // a csv source would otherwise be silently discarded.
  if (source->kind == SourceSpec::Kind::kCsv) {
    if (case_present) f.Fail("case", "only valid for synthetic sources");
    if (profile_present) f.Fail("profile", "only valid for synthetic sources");
  }
  f.Finish();
}

void ParseMethods(const JsonValue& json, std::vector<MethodGridSpec>* methods,
                  Status* status) {
  if (!json.is_array()) {
    if (status->ok()) {
      *status = Status::Invalid("methods: expected an array of method specs");
    }
    return;
  }
  methods->clear();
  for (size_t i = 0; i < json.size(); ++i) {
    std::string path = "methods[" + std::to_string(i) + "]";
    Fields f(path, json.at(i), status);
    MethodGridSpec method;
    f.String("name", &method.name);
    if (const JsonValue* grid = f.Get("grid")) {
      if (!grid->is_object()) {
        f.Fail("grid", "expected an object of parameter value lists");
      } else {
        for (const auto& [key, values] : grid->members()) {
          std::vector<std::string> expanded;
          if (values.is_array()) {
            for (size_t v = 0; v < values.size(); ++v) {
              std::string text;
              Status scalar = ScalarToString(values.at(v), &text);
              if (!scalar.ok()) {
                f.Fail("grid." + key + "[" + std::to_string(v) + "]",
                       scalar.message());
                break;
              }
              expanded.push_back(std::move(text));
            }
            if (values.size() == 0) {
              f.Fail("grid." + key, "value list must not be empty");
            }
          } else {
            std::string text;
            Status scalar = ScalarToString(values, &text);
            if (!scalar.ok()) {
              f.Fail("grid." + key, scalar.message());
            } else {
              expanded.push_back(std::move(text));
            }
          }
          method.grid.emplace_back(key, std::move(expanded));
        }
      }
    }
    f.Finish();
    methods->push_back(std::move(method));
  }
}

void ParseMeasures(const JsonValue& json, MeasureSpec* measures,
                   Status* status) {
  Fields f("measures", json, status);
  std::string aggregation;
  f.String("aggregation", &aggregation);
  if (!aggregation.empty()) {
    auto parsed = metrics::ScoreAggregationFromString(aggregation);
    if (!parsed.ok()) {
      f.Fail("aggregation", parsed.status().message());
    } else {
      measures->aggregation = parsed.ValueOrDie();
    }
  }
  f.Double("il_weight", &measures->il_weight);
  f.StringList("enabled", &measures->enabled);
  f.Int("ctbil_max_dimension", &measures->ctbil_max_dimension);
  f.Double("id_window_percent", &measures->id_window_percent);
  f.Double("rsrl_assumed_p_percent", &measures->rsrl_assumed_p_percent);
  f.Int("prl_em_iterations", &measures->prl_em_iterations);
  f.Finish();
}

/// The retired `fitness` block. Each measure state now fixes its own rebuild
/// fraction, so specs dumped before the block was retired (which carry
/// `delta_rebuild_fraction: 0`) still parse and reproduce their runs; each
/// key is accepted only with the value that selects what every run now does.
void ParseFitness(const JsonValue& json, Status* status) {
  Fields f("fitness", json, status);
  double fraction = 0.0;
  f.Double("delta_rebuild_fraction", &fraction);
  if (fraction != 0.0) {
    f.Fail("delta_rebuild_fraction",
           "retired: every measure uses its own rebuild fraction, so only 0 "
           "is accepted");
  }
  bool probe = false;
  f.Bool("probe_rebuild_fractions", &probe);
  if (probe) {
    f.Fail("probe_rebuild_fractions",
           "retired: rebuild fractions are no longer probed, so only false is "
           "accepted");
  }
  if (const JsonValue* fractions = f.Get("rebuild_fractions")) {
    if (!fractions->is_object() || !fractions->members().empty()) {
      f.Fail("rebuild_fractions",
             "retired: every measure uses its own rebuild fraction, so only "
             "{} is accepted");
    }
  }
  f.Finish();
}

void ParseGa(const JsonValue& json, core::GaConfig* ga, Status* status) {
  Fields f("ga", json, status);
  f.Int("generations", &ga->generations);
  f.Double("mutation_rate", &ga->mutation_rate);
  f.Int("leader_group_size", &ga->leader_group_size);
  std::string selection;
  f.String("selection", &selection);
  if (!selection.empty()) {
    auto parsed = core::SelectionStrategyFromString(selection);
    if (!parsed.ok()) {
      f.Fail("selection", parsed.status().message());
    } else {
      ga->selection = parsed.ValueOrDie();
    }
  }
  f.Bool("mutation_excludes_current", &ga->mutation_excludes_current);
  f.Int("no_improvement_window", &ga->no_improvement_window);
  // Retired schedule keys. Every run now scores offspring through the delta
  // states on the parallel schedule, which is what `true` selected, so
  // specs dumped before the keys were retired still parse and reproduce
  // their runs; `false` named a path that no longer exists.
  for (const char* retired : {"parallel_offspring_eval", "incremental_eval"}) {
    bool value = true;
    f.Bool(retired, &value);
    if (!value) {
      f.Fail(retired, "retired: every run uses what true selected, so only "
                      "true is accepted");
    }
  }
  f.Finish();
}

void ParseStrategy(const JsonValue& json, StrategySpec* strategy,
                   Status* status) {
  Fields f("strategy", json, status);
  f.String("name", &strategy->name);
  if (const JsonValue* params = f.Get("params")) {
    if (!params->is_object()) {
      f.Fail("params", "expected an object of scalar parameters");
    } else {
      strategy->params.clear();
      for (const auto& [key, value] : params->members()) {
        std::string text;
        Status scalar = ScalarToString(value, &text);
        if (!scalar.ok()) {
          f.Fail("params." + key, scalar.message());
          break;
        }
        strategy->params[key] = std::move(text);
      }
    }
  }
  f.Finish();
}

void ParseSeeds(const JsonValue& json, SeedSpec* seeds, Status* status) {
  Fields f("seeds", json, status);
  f.Uint64("master", &seeds->master);
  f.OptUint64("data", &seeds->data);
  f.OptUint64("protection", &seeds->protection);
  f.OptUint64("ga", &seeds->ga);
  f.Finish();
}

void ParseOutputs(const JsonValue& json, OutputSpec* outputs, Status* status) {
  Fields f("outputs", json, status);
  f.Bool("initial_population", &outputs->initial_population);
  f.Bool("final_population", &outputs->final_population);
  f.Bool("history", &outputs->history);
  f.Bool("telemetry", &outputs->telemetry);
  f.String("best_csv_path", &outputs->best_csv_path);
  f.String("original_csv_path", &outputs->original_csv_path);
  f.Finish();
}

/// Grid value -> JSON scalar (numbers regain their numeric type).
JsonValue GridValueToJson(const std::string& text) {
  int64_t integer = 0;
  if (ParseInt64(text, &integer).ok()) return JsonValue::MakeInt(integer);
  double number = 0.0;
  if (ParseDouble(text, &number).ok()) return JsonValue::MakeNumber(number);
  return JsonValue::MakeString(text);
}

/// Seeds above int64 range serialize as decimal strings (JSON integers are
/// parsed as int64).
JsonValue Uint64ToJson(uint64_t value) {
  if (value <= static_cast<uint64_t>(INT64_MAX)) {
    return JsonValue::MakeInt(static_cast<int64_t>(value));
  }
  return JsonValue::MakeString(std::to_string(value));
}

JsonValue StringListToJson(const std::vector<std::string>& values) {
  JsonValue array = JsonValue::MakeArray();
  for (const auto& value : values) array.Append(JsonValue::MakeString(value));
  return array;
}

}  // namespace

void SeedSpec::MakeExplicit() {
  uint64_t data_seed = DataSeed();
  uint64_t protection_seed = ProtectionSeed();
  uint64_t ga_seed = GaSeed();
  data = data_seed;
  protection = protection_seed;
  ga = ga_seed;
}

namespace {
/// Stage seeds derived from the master in a fixed order, so explicitly
/// pinning one stage never changes the others.
enum SeedStage { kDataStage = 0, kProtectionStage = 1, kGaStage = 2 };

uint64_t DerivedSeed(uint64_t master, SeedStage stage) {
  Rng rng(master);
  uint64_t seed = 0;
  for (int i = 0; i <= stage; ++i) seed = rng.NextU64();
  return seed;
}
}  // namespace

uint64_t SeedSpec::DataSeed() const {
  return data ? *data : DerivedSeed(master, kDataStage);
}
uint64_t SeedSpec::ProtectionSeed() const {
  return protection ? *protection : DerivedSeed(master, kProtectionStage);
}
uint64_t SeedSpec::GaSeed() const {
  return ga ? *ga : DerivedSeed(master, kGaStage);
}

Result<JobSpec> JobSpec::FromJson(const JsonValue& json) {
  Status status;
  JobSpec spec;
  Fields f("", json, &status);
  f.String("name", &spec.name);
  if (const JsonValue* source = f.Get("source")) {
    ParseSource("source", *source, &spec.source, &status);
  }
  f.StringList("protected_attributes", &spec.protected_attributes);
  if (const JsonValue* methods = f.Get("methods")) {
    ParseMethods(*methods, &spec.methods, &status);
  }
  if (const JsonValue* measures = f.Get("measures")) {
    ParseMeasures(*measures, &spec.measures, &status);
  }
  if (const JsonValue* fitness = f.Get("fitness")) {
    ParseFitness(*fitness, &status);
  }
  if (const JsonValue* ga = f.Get("ga")) {
    ParseGa(*ga, &spec.ga, &status);
  }
  if (const JsonValue* strategy = f.Get("strategy")) {
    ParseStrategy(*strategy, &spec.strategy, &status);
  }
  f.Double("remove_best_fraction", &spec.remove_best_fraction);
  if (const JsonValue* seeds = f.Get("seeds")) {
    ParseSeeds(*seeds, &spec.seeds, &status);
  }
  if (const JsonValue* outputs = f.Get("outputs")) {
    ParseOutputs(*outputs, &spec.outputs, &status);
  }
  f.Finish();
  EVOCAT_RETURN_NOT_OK(status);
  EVOCAT_RETURN_NOT_OK(spec.Validate());
  return spec;
}

Result<JobSpec> JobSpec::FromJsonText(const std::string& text) {
  EVOCAT_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(text));
  return FromJson(json);
}

Result<JobSpec> JobSpec::FromJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open job spec '", path, "' for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto spec = FromJsonText(buffer.str());
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + spec.status().message());
  }
  return spec;
}

Status JobSpec::Validate() const {
  if (source.kind == SourceSpec::Kind::kCsv) {
    if (source.path.empty()) {
      return Status::Invalid("source.path: required for csv sources");
    }
    if (source.separator.size() != 1) {
      return Status::Invalid("source.separator: expected a single character, "
                             "got '", source.separator, "'");
    }
    if (protected_attributes.empty()) {
      return Status::Invalid(
          "protected_attributes: required for csv sources");
    }
    if (source.has_inline_profile) {
      return Status::Invalid(
          "source.profile: only valid for synthetic sources");
    }
  } else if (source.has_inline_profile) {
    if (source.profile.num_records <= 0) {
      return Status::Invalid("source.profile.num_records: must be positive");
    }
    if (source.profile.attributes.empty()) {
      return Status::Invalid("source.profile.attributes: must not be empty");
    }
    for (size_t i = 0; i < source.profile.attributes.size(); ++i) {
      if (source.profile.attributes[i].cardinality < 2) {
        return Status::Invalid("source.profile.attributes[", i,
                               "].cardinality: must be at least 2");
      }
    }
    if (protected_attributes.empty() &&
        source.profile.protected_attributes.empty()) {
      return Status::Invalid(
          "protected_attributes: required (profile declares none)");
    }
  } else {
    auto profile = datagen::ProfileByName(source.case_name);
    if (!profile.ok()) {
      return Status::Invalid("source.case: ", profile.status().message());
    }
  }
  if (source.kind == SourceSpec::Kind::kSynthetic) {
    // A csv-only field on a synthetic source is almost always a forgotten
    // "kind": "csv" — running the synthetic default instead of the user's
    // file would be a silent wrong-dataset run.
    if (!source.path.empty()) {
      return Status::Invalid(
          "source.path: only valid for csv sources (missing "
          "\"kind\": \"csv\"?)");
    }
    if (!source.ordinal_attributes.empty()) {
      return Status::Invalid(
          "source.ordinal_attributes: only valid for csv sources");
    }
    if (!source.has_header) {
      return Status::Invalid("source.has_header: only valid for csv sources");
    }
    if (source.separator != ",") {
      return Status::Invalid("source.separator: only valid for csv sources");
    }
  }

  for (size_t i = 0; i < methods.size(); ++i) {
    const MethodGridSpec& method = methods[i];
    if (!protection::MethodRegistry::Global().Contains(method.name)) {
      return Status::Invalid(
          "methods[", i, "].name: unknown protection method '", method.name,
          "'; known: ",
          Join(protection::MethodRegistry::Global().Names(), ','));
    }
    for (const auto& [key, values] : method.grid) {
      if (values.empty()) {
        return Status::Invalid("methods[", i, "].grid.", key,
                               ": value list must not be empty");
      }
    }
    // Dry-run every combination (construction is cheap) so unknown parameter
    // keys and malformed values fail at spec validation instead of mid-run.
    // Range errors (e.g. microaggregation k < 2) are the methods' own
    // Protect-time checks and still surface at run time.
    for (const ParamMap& params : ExpandGrid(method)) {
      auto instance =
          protection::MethodRegistry::Global().Create(method.name, params);
      if (!instance.ok()) {
        return Status::Invalid("methods[", i, "]: ",
                               instance.status().message());
      }
    }
  }

  if (measures.il_weight < 0.0 || measures.il_weight > 1.0) {
    return Status::Invalid("measures.il_weight: must be in [0, 1], got ",
                           measures.il_weight);
  }
  for (size_t i = 0; i < measures.enabled.size(); ++i) {
    if (!metrics::MeasureRegistry::Global().Contains(measures.enabled[i])) {
      return Status::Invalid(
          "measures.enabled[", i, "]: unknown measure '", measures.enabled[i],
          "'; known: ", Join(metrics::MeasureRegistry::Global().Names(), ','));
    }
  }
  // The evaluator's own check: measure parameter ranges, then both kinds.
  Status selection = metrics::CheckMeasureSelection(FitnessOptions());
  if (!selection.ok()) {
    return Status::Invalid("measures: ", selection.message());
  }

  if (strategy.name.empty()) {
    return Status::Invalid("strategy.name: must not be empty");
  }
  if (!evolve::StrategyRegistry::Global().Contains(strategy.name)) {
    return Status::Invalid(
        "strategy.name: unknown evolution strategy '", strategy.name,
        "'; known: ", Join(evolve::StrategyRegistry::Global().Names(), ','));
  }
  // Dry-run construction (cheap) so unknown parameter keys and out-of-range
  // values fail at spec validation instead of mid-run.
  {
    auto instance =
        evolve::StrategyRegistry::Global().Create(strategy.name,
                                                  strategy.params);
    if (!instance.ok()) {
      return Status::Invalid("strategy: ", instance.status().message());
    }
  }

  if (ga.generations < 0) {
    return Status::Invalid("ga.generations: must be non-negative, got ",
                           ga.generations);
  }
  if (ga.mutation_rate < 0.0 || ga.mutation_rate > 1.0) {
    return Status::Invalid("ga.mutation_rate: must be in [0, 1], got ",
                           ga.mutation_rate);
  }
  if (ga.leader_group_size < 1) {
    return Status::Invalid("ga.leader_group_size: must be at least 1, got ",
                           ga.leader_group_size);
  }
  if (remove_best_fraction < 0.0 || remove_best_fraction >= 1.0) {
    return Status::Invalid("remove_best_fraction: must be in [0, 1), got ",
                           remove_best_fraction);
  }
  return Status::OK();
}

metrics::FitnessEvaluator::Options JobSpec::FitnessOptions() const {
  metrics::FitnessEvaluator::Options options;
  options.aggregation = measures.aggregation;
  options.il_weight = measures.il_weight;
  options.ctbil_max_dimension = measures.ctbil_max_dimension;
  options.id_window_percent = measures.id_window_percent;
  options.rsrl_assumed_p_percent = measures.rsrl_assumed_p_percent;
  options.prl_em_iterations = measures.prl_em_iterations;
  if (!measures.enabled.empty()) {
    for (const metrics::FitnessMeasure& measure : metrics::FitnessMeasures()) {
      options.*measure.enabled = false;
      for (const std::string& name : measures.enabled) {
        if (ToLower(name) == measure.key) options.*measure.enabled = true;
      }
    }
  }
  return options;
}

JsonValue JobSpec::ToJson() const {
  JsonValue json = JsonValue::MakeObject();
  json.Set("name", JsonValue::MakeString(name));

  JsonValue source_json = JsonValue::MakeObject();
  if (source.kind == SourceSpec::Kind::kCsv) {
    source_json.Set("kind", JsonValue::MakeString("csv"));
    source_json.Set("path", JsonValue::MakeString(source.path));
    source_json.Set("has_header", JsonValue::MakeBool(source.has_header));
    source_json.Set("separator", JsonValue::MakeString(source.separator));
    if (!source.ordinal_attributes.empty()) {
      source_json.Set("ordinal_attributes",
                      StringListToJson(source.ordinal_attributes));
    }
  } else {
    source_json.Set("kind", JsonValue::MakeString("synthetic"));
    if (source.has_inline_profile) {
      JsonValue profile = JsonValue::MakeObject();
      profile.Set("name", JsonValue::MakeString(source.profile.name));
      profile.Set("num_records",
                  JsonValue::MakeInt(source.profile.num_records));
      JsonValue attributes = JsonValue::MakeArray();
      for (const auto& attribute : source.profile.attributes) {
        JsonValue a = JsonValue::MakeObject();
        a.Set("name", JsonValue::MakeString(attribute.name));
        a.Set("kind", JsonValue::MakeString(
                          attribute.kind == AttrKind::kOrdinal ? "ordinal"
                                                               : "nominal"));
        a.Set("cardinality", JsonValue::MakeInt(attribute.cardinality));
        a.Set("zipf_s", JsonValue::MakeNumber(attribute.zipf_s));
        a.Set("latent_weight", JsonValue::MakeNumber(attribute.latent_weight));
        attributes.Append(std::move(a));
      }
      profile.Set("attributes", std::move(attributes));
      if (!source.profile.protected_attributes.empty()) {
        profile.Set("protected_attributes",
                    StringListToJson(source.profile.protected_attributes));
      }
      source_json.Set("profile", std::move(profile));
    } else {
      source_json.Set("case", JsonValue::MakeString(source.case_name));
    }
  }
  json.Set("source", std::move(source_json));

  if (!protected_attributes.empty()) {
    json.Set("protected_attributes", StringListToJson(protected_attributes));
  }

  if (!methods.empty()) {
    JsonValue methods_json = JsonValue::MakeArray();
    for (const MethodGridSpec& method : methods) {
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("name", JsonValue::MakeString(method.name));
      if (!method.grid.empty()) {
        JsonValue grid = JsonValue::MakeObject();
        for (const auto& [key, values] : method.grid) {
          JsonValue list = JsonValue::MakeArray();
          for (const std::string& value : values) {
            list.Append(GridValueToJson(value));
          }
          grid.Set(key, std::move(list));
        }
        entry.Set("grid", std::move(grid));
      }
      methods_json.Append(std::move(entry));
    }
    json.Set("methods", std::move(methods_json));
  }

  JsonValue measures_json = JsonValue::MakeObject();
  measures_json.Set("aggregation",
                    JsonValue::MakeString(metrics::ScoreAggregationToString(
                        measures.aggregation)));
  measures_json.Set("il_weight", JsonValue::MakeNumber(measures.il_weight));
  if (!measures.enabled.empty()) {
    measures_json.Set("enabled", StringListToJson(measures.enabled));
  }
  measures_json.Set("ctbil_max_dimension",
                    JsonValue::MakeInt(measures.ctbil_max_dimension));
  measures_json.Set("id_window_percent",
                    JsonValue::MakeNumber(measures.id_window_percent));
  measures_json.Set("rsrl_assumed_p_percent",
                    JsonValue::MakeNumber(measures.rsrl_assumed_p_percent));
  measures_json.Set("prl_em_iterations",
                    JsonValue::MakeInt(measures.prl_em_iterations));
  json.Set("measures", std::move(measures_json));

  JsonValue ga_json = JsonValue::MakeObject();
  ga_json.Set("generations", JsonValue::MakeInt(ga.generations));
  ga_json.Set("mutation_rate", JsonValue::MakeNumber(ga.mutation_rate));
  ga_json.Set("leader_group_size", JsonValue::MakeInt(ga.leader_group_size));
  ga_json.Set("selection", JsonValue::MakeString(
                               core::SelectionStrategyToString(ga.selection)));
  ga_json.Set("mutation_excludes_current",
              JsonValue::MakeBool(ga.mutation_excludes_current));
  ga_json.Set("no_improvement_window",
              JsonValue::MakeInt(ga.no_improvement_window));
  json.Set("ga", std::move(ga_json));

  JsonValue strategy_json = JsonValue::MakeObject();
  strategy_json.Set("name", JsonValue::MakeString(strategy.name));
  if (!strategy.params.empty()) {
    JsonValue params = JsonValue::MakeObject();
    for (const auto& [key, value] : strategy.params) {
      params.Set(key, GridValueToJson(value));
    }
    strategy_json.Set("params", std::move(params));
  }
  json.Set("strategy", std::move(strategy_json));

  json.Set("remove_best_fraction",
           JsonValue::MakeNumber(remove_best_fraction));

  JsonValue seeds_json = JsonValue::MakeObject();
  seeds_json.Set("master", Uint64ToJson(seeds.master));
  if (seeds.data) seeds_json.Set("data", Uint64ToJson(*seeds.data));
  if (seeds.protection) {
    seeds_json.Set("protection", Uint64ToJson(*seeds.protection));
  }
  if (seeds.ga) seeds_json.Set("ga", Uint64ToJson(*seeds.ga));
  json.Set("seeds", std::move(seeds_json));

  JsonValue outputs_json = JsonValue::MakeObject();
  outputs_json.Set("initial_population",
                   JsonValue::MakeBool(outputs.initial_population));
  outputs_json.Set("final_population",
                   JsonValue::MakeBool(outputs.final_population));
  outputs_json.Set("history", JsonValue::MakeBool(outputs.history));
  outputs_json.Set("telemetry", JsonValue::MakeBool(outputs.telemetry));
  if (!outputs.best_csv_path.empty()) {
    outputs_json.Set("best_csv_path",
                     JsonValue::MakeString(outputs.best_csv_path));
  }
  if (!outputs.original_csv_path.empty()) {
    outputs_json.Set("original_csv_path",
                     JsonValue::MakeString(outputs.original_csv_path));
  }
  json.Set("outputs", std::move(outputs_json));
  return json;
}

std::vector<ParamMap> ExpandGrid(const MethodGridSpec& spec) {
  std::vector<ParamMap> combinations{ParamMap{}};
  for (const auto& [key, values] : spec.grid) {
    std::vector<ParamMap> expanded;
    expanded.reserve(combinations.size() * values.size());
    for (const ParamMap& base : combinations) {
      for (const std::string& value : values) {
        ParamMap params = base;
        params[key] = value;
        expanded.push_back(std::move(params));
      }
    }
    combinations = std::move(expanded);
  }
  return combinations;
}

}  // namespace api
}  // namespace evocat
