// evocat_protect — end-to-end protection of a categorical CSV file.
//
// The tool is a thin adapter over the evocat::api façade: it assembles one
// JobSpec — from --job <spec.json>, from flags, or both (flags override the
// spec) — and hands it to api::Session. See docs/api.md for the spec schema.
//
// Examples (a command continues on the lines indented under it):
//   evocat_protect --job=job.json
//   evocat_protect --synthetic=adult --generations=500 --out=protected.csv
//   evocat_protect --input=census.csv --attrs=EDUCATION,MARITAL,OCCUPATION
//       --ordinal=EDUCATION --score=max --out=protected.csv --report
//   evocat_protect --synthetic=flare --dump-job=- # print the resolved spec

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>

#include "api/session.h"
#include "common/flags.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "spec_flags.h"

using namespace evocat;

namespace {

int Fail(const Status& status) {
  EVOCAT_LOG(ERROR) << status.ToString();
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);

  std::string job_path, input, synthetic, attrs_flag, ordinal_flag, score_name;
  std::string strategy_name, output, save_original, dump_job;
  int64_t generations = -1;
  int64_t seed = -1;
  double il_weight = std::numeric_limits<double>::quiet_NaN();
  bool report = false;

  FlagParser parser("evocat_protect",
                    "evolutionary optimization of categorical data protection");
  parser.AddString("job", "JSON JobSpec driving the run (see docs/api.md); "
                   "other flags override its fields", &job_path);
  parser.AddString("input", "CSV file to protect (all attributes categorical)",
                   &input);
  parser.AddString("synthetic",
                   "generate a paper dataset instead: adult|housing|german|flare",
                   &synthetic);
  parser.AddString("attrs",
                   "comma-separated quasi-identifier attribute names "
                   "(required with --input)",
                   &attrs_flag);
  parser.AddString("ordinal", "comma-separated ordinal attribute names",
                   &ordinal_flag);
  parser.AddString("score", "fitness aggregation: mean|max|euclidean|weighted",
                   &score_name);
  parser.AddString("strategy",
                   "evolution strategy: generational|steady_state|islands; "
                   "switching away from the spec's strategy resets its "
                   "params to defaults (see docs/strategies.md)",
                   &strategy_name);
  parser.AddDouble("il-weight", "information-loss weight for --score=weighted",
                   &il_weight);
  parser.AddInt("generations", "GA generation budget", &generations);
  parser.AddInt("seed", "master random seed (data + masking + evolution)",
                &seed);
  parser.AddString("out", "output CSV path for the best protection", &output);
  parser.AddString("save-original",
                   "also write the (generated) original CSV here — pairs with "
                   "evocat_evaluate",
                   &save_original);
  parser.AddString("dump-job",
                   "write the resolved JobSpec JSON here ('-' = stdout) "
                   "instead of running",
                   &dump_job);
  parser.AddBool("report", "print the per-generation evolution CSV", &report);
  std::string trace_out;
  parser.AddString("trace-out",
                   "record trace spans and write Chrome trace_event JSON "
                   "here on exit",
                   &trace_out);

  Status parse_status = parser.Parse(argc, argv);
  if (!parse_status.ok()) return Fail(parse_status);
  if (parser.help_requested()) {
    std::cout << parser.Usage();
    return 0;
  }
  if (!trace_out.empty()) obs::EnableTracing();
  // Numeric flags use -1 as the "unset" sentinel; any other negative is a
  // user error, not an absent flag.
  if (generations < -1) {
    return Fail(Status::Invalid("--generations must be non-negative, got ",
                                generations));
  }
  if (seed < -1) {
    return Fail(Status::Invalid("--seed must be non-negative, got ", seed));
  }
  if (!std::isnan(il_weight) && (il_weight < 0.0 || il_weight > 1.0)) {
    return Fail(Status::Invalid("--il-weight must be in [0, 1], got ",
                                il_weight));
  }

  if (!input.empty() && !synthetic.empty()) {
    return Fail(Status::Invalid("--input and --synthetic are mutually "
                                "exclusive"));
  }

  // --- Assemble the JobSpec: file first, then flag overrides --------------
  api::JobSpec spec;
  if (!job_path.empty()) {
    auto loaded = api::JobSpec::FromJsonFile(job_path);
    if (!loaded.ok()) return Fail(loaded.status());
    spec = std::move(loaded).ValueOrDie();
  } else {
    if (input.empty() && synthetic.empty()) {
      return Fail(Status::Invalid(
          "pass exactly one of --input or --synthetic (or a --job spec)"));
    }
    // Legacy CLI defaults (JobSpec defaults differ: 400 generations, mean).
    spec.ga.generations = 1000;
    spec.measures.aggregation = metrics::ScoreAggregation::kMax;
    spec.outputs.best_csv_path = "protected.csv";
  }

  if (!input.empty()) {
    tools::OverrideCsvSource(&spec, input);
  } else if (!synthetic.empty()) {
    spec.source = api::SourceSpec();
    spec.source.kind = api::SourceSpec::Kind::kSynthetic;
    spec.source.case_name = synthetic;
  }
  tools::OverrideAttributeFlags(&spec, attrs_flag, ordinal_flag);
  if (!score_name.empty()) {
    auto aggregation = metrics::ScoreAggregationFromString(score_name);
    if (!aggregation.ok()) return Fail(aggregation.status());
    spec.measures.aggregation = aggregation.ValueOrDie();
  }
  if (!strategy_name.empty()) {
    // Keep the spec's parameters only when the name is unchanged — another
    // strategy's parameters would fail validation as unknown keys.
    if (strategy_name != spec.strategy.name) spec.strategy.params.clear();
    spec.strategy.name = strategy_name;
  }
  if (!std::isnan(il_weight)) spec.measures.il_weight = il_weight;
  if (generations >= 0) spec.ga.generations = static_cast<int>(generations);
  if (seed >= 0) {
    spec.seeds = api::SeedSpec();
    spec.seeds.master = static_cast<uint64_t>(seed);
  }
  if (!output.empty()) spec.outputs.best_csv_path = output;
  if (!save_original.empty()) spec.outputs.original_csv_path = save_original;
  if (report) spec.outputs.history = true;  // --report needs the trajectory

  if (!dump_job.empty()) {
    Status valid = spec.Validate();
    if (!valid.ok()) return Fail(valid);
    std::string text = spec.ToJsonText();
    if (dump_job == "-") {
      std::cout << text;
    } else {
      std::ofstream out(dump_job);
      out << text;
      out.close();
      if (!out) {
        return Fail(Status::IOError("error writing job spec to '", dump_job,
                                    "'"));
      }
      std::printf("wrote job spec to %s\n", dump_job.c_str());
    }
    return 0;
  }

  // --- Run through the façade --------------------------------------------
  api::Session session;
  auto run = session.Run(spec);
  if (!run.ok()) return Fail(run.status());
  const api::RunArtifacts& artifacts = run.ValueOrDie();

  std::printf("original: %lld records; protecting %zu attributes (%s)\n",
              static_cast<long long>(artifacts.num_rows),
              artifacts.protected_attrs.size(), artifacts.dataset.c_str());
  std::printf("seeded %lld protections; evolved %lld generations (score=%s, "
              "%lld evaluations)\n",
              static_cast<long long>(artifacts.population_size),
              static_cast<long long>(artifacts.stats.mutation_generations +
                                     artifacts.stats.crossover_generations),
              metrics::ScoreAggregationToString(
                  artifacts.spec.measures.aggregation),
              static_cast<long long>(artifacts.evaluations));

  if (report) {
    std::printf("generation,min_score,mean_score,max_score\n");
    for (const auto& record : artifacts.history) {
      std::printf("%d,%.3f,%.3f,%.3f\n", record.generation, record.min_score,
                  record.mean_score, record.max_score);
    }
  }

  std::printf("best: score=%.2f IL=%.2f DR=%.2f origin=%s\n",
              artifacts.best.fitness.score, artifacts.best.fitness.il,
              artifacts.best.fitness.dr, artifacts.best.origin.c_str());
  if (!artifacts.spec.outputs.original_csv_path.empty()) {
    std::printf("wrote original to %s\n",
                artifacts.spec.outputs.original_csv_path.c_str());
  }
  if (!artifacts.spec.outputs.best_csv_path.empty()) {
    std::printf("wrote %s\n", artifacts.spec.outputs.best_csv_path.c_str());
  }
  if (!trace_out.empty()) {
    std::string error;
    if (!obs::WriteChromeTrace(trace_out, obs::SnapshotTrace(), &error)) {
      return Fail(Status::IOError("trace export failed: ", error));
    }
    std::printf("wrote trace to %s\n", trace_out.c_str());
  }
  return 0;
}
