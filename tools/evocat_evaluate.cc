// evocat_evaluate — score a protected CSV against its original.
//
// Prints the seven IL/DR measures, the aggregate IL and DR, and the score
// aggregations, so any masked file (from evocat or elsewhere) can be placed
// on the paper's trade-off map. The original dataset and measure
// configuration come from a JobSpec (--job) and/or flags; measures disabled
// in the spec print as '-' and are footnoted.
//
// Masked values are decoded strictly onto the original's dictionaries by
// default — a value the original never contained is an error naming its line
// and column. Files from other tools that introduce new (generalized) labels
// need --allow-new-categories, which registers such labels as fresh
// categories instead.
//
// Examples (a command continues on the lines indented under it):
//   evocat_evaluate --original=census.csv --protected=census_protected.csv
//       --attrs=EDUCATION,MARITAL,OCCUPATION --ordinal=EDUCATION
//   evocat_evaluate --job=job.json --protected=census_protected.csv

#include <cmath>
#include <cstdio>
#include <iostream>

#include "api/session.h"
#include "common/flags.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spec_flags.h"
#include "data/csv.h"

using namespace evocat;

namespace {

int Fail(const Status& status) {
  EVOCAT_LOG(ERROR) << status.ToString();
  return 1;
}

/// Formats one measure cell: disabled measures (NaN) print as '-'.
std::string Cell(double value) {
  if (std::isnan(value)) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);

  std::string job_path, original_path, protected_path, attrs_flag, ordinal_flag;
  FlagParser parser("evocat_evaluate",
                    "information loss / disclosure risk report for a masked file");
  parser.AddString("job",
                   "JSON JobSpec naming the original source, protected "
                   "attributes and measure configuration (see docs/api.md)",
                   &job_path);
  parser.AddString("original", "original CSV file", &original_path);
  parser.AddString("protected", "masked CSV file to evaluate", &protected_path);
  parser.AddString("attrs", "comma-separated quasi-identifier names",
                   &attrs_flag);
  parser.AddString("ordinal", "comma-separated ordinal attribute names",
                   &ordinal_flag);
  bool allow_new_categories = false;
  parser.AddBool("allow-new-categories",
                 "register masked values missing from the original's "
                 "dictionaries as new categories instead of failing",
                 &allow_new_categories);
  bool metrics_dump = false;
  parser.AddBool("metrics-dump",
                 "print the process metrics registry (Prometheus text "
                 "exposition) after the report",
                 &metrics_dump);
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
  if (protected_path.empty()) {
    return Fail(Status::Invalid("--protected is required\n", parser.Usage()));
  }

  // --- Assemble the JobSpec: file first, then flag overrides --------------
  api::JobSpec spec;
  if (!job_path.empty()) {
    auto loaded = api::JobSpec::FromJsonFile(job_path);
    if (!loaded.ok()) return Fail(loaded.status());
    spec = std::move(loaded).ValueOrDie();
  } else if (original_path.empty() || attrs_flag.empty()) {
    return Fail(Status::Invalid(
        "--original and --attrs are required without --job\n",
        parser.Usage()));
  }
  tools::OverrideCsvSource(&spec, original_path);
  tools::OverrideAttributeFlags(&spec, attrs_flag, ordinal_flag);
  Status valid = spec.Validate();
  if (!valid.ok()) return Fail(valid);

  // --- Load the original through the façade, the masked file onto its
  // schema (strict by default: every masked value must be a known category) -
  api::Session session;
  auto source = session.LoadSource(spec);
  if (!source.ok()) return Fail(source.status());
  const Dataset& original = source.ValueOrDie().original;

  CsvReadOptions masked_options;
  masked_options.has_header = spec.source.has_header;
  masked_options.separator = spec.source.separator[0];
  Result<Dataset> masked = Status::Internal("unset");
  if (allow_new_categories) {
    // Lenient: re-encode row by row, growing the shared dictionaries for
    // labels the original never contained (external generalizing tools).
    auto raw = ReadCsvFile(protected_path, masked_options);
    if (!raw.ok()) return Fail(raw.status());
    if (raw.ValueOrDie().num_attributes() != original.num_attributes()) {
      return Fail(Status::Invalid("attribute count mismatch between files"));
    }
    Dataset recoded(original.schema_ptr());
    const Dataset& raw_data = raw.ValueOrDie();
    std::vector<std::string> row(
        static_cast<size_t>(raw_data.num_attributes()));
    for (int64_t r = 0; r < raw_data.num_rows(); ++r) {
      for (int a = 0; a < raw_data.num_attributes(); ++a) {
        row[static_cast<size_t>(a)] = raw_data.Value(r, a);
      }
      Status status = recoded.AppendRowValues(row);
      if (!status.ok()) return Fail(status);
    }
    masked = std::move(recoded);
  } else {
    masked_options.bind_schema = original.schema_ptr();
    masked = ReadCsvFile(protected_path, masked_options);
    if (!masked.ok()) return Fail(masked.status());
  }

  auto evaluator = metrics::FitnessEvaluator::Create(
      original, source.ValueOrDie().attrs, spec.FitnessOptions());
  if (!evaluator.ok()) return Fail(evaluator.status());
  metrics::FitnessBreakdown b =
      evaluator.ValueOrDie()->Evaluate(masked.ValueOrDie());

  std::printf("information loss:  CTBIL=%s DBIL=%s EBIL=%s  -> IL=%.2f\n",
              Cell(b.ctbil).c_str(), Cell(b.dbil).c_str(),
              Cell(b.ebil).c_str(), b.il);
  std::printf("disclosure risk:   ID=%s DBRL=%s PRL=%s RSRL=%s  -> DR=%.2f\n",
              Cell(b.id).c_str(), Cell(b.dbrl).c_str(), Cell(b.prl).c_str(),
              Cell(b.rsrl).c_str(), b.dr);
  std::printf("scores:            mean=%.2f max=%.2f euclidean=%.2f\n",
              metrics::AggregateScore(metrics::ScoreAggregation::kMean, b.il, b.dr),
              metrics::AggregateScore(metrics::ScoreAggregation::kMax, b.il, b.dr),
              metrics::AggregateScore(metrics::ScoreAggregation::kEuclidean,
                                      b.il, b.dr));

  std::vector<std::string> disabled;
  for (const metrics::FitnessMeasure& measure : metrics::FitnessMeasures()) {
    if (std::isnan(b.*measure.field)) disabled.push_back(measure.name);
  }
  if (!disabled.empty()) {
    std::printf("note: '-' marks measures disabled in the spec (%s); they are "
                "excluded from the IL/DR averages\n",
                Join(disabled, ',').c_str());
  }

  if (metrics_dump) {
    std::printf("\n%s",
                obs::MetricsRegistry::Global().ToPrometheusText().c_str());
  }
  if (!trace_out.empty()) {
    std::string error;
    if (!obs::WriteChromeTrace(trace_out, obs::SnapshotTrace(), &error)) {
      return Fail(Status::IOError("trace export failed: ", error));
    }
  }
  return 0;
}
