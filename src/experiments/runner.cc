#include "experiments/runner.h"

#include <limits>

#include "api/session.h"

namespace evocat {
namespace experiments {

namespace {

/// api summaries -> the runner's (IL, DR, score) triples.
std::vector<IndividualSummary> ToSummaries(
    const std::vector<api::MemberSummary>& members) {
  std::vector<IndividualSummary> summaries;
  summaries.reserve(members.size());
  for (const auto& member : members) {
    IndividualSummary summary;
    summary.origin = member.origin;
    summary.il = member.fitness.il;
    summary.dr = member.fitness.dr;
    summary.score = member.fitness.score;
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

ScoreTriple ToTriple(const api::ScoreStats& stats) {
  ScoreTriple triple;
  triple.min = stats.min;
  triple.mean = stats.mean;
  triple.max = stats.max;
  return triple;
}

/// Measure toggles -> the JobSpec's enabled-measure list (empty == all).
std::vector<std::string> EnabledMeasures(
    const metrics::FitnessEvaluator::Options& options) {
  std::vector<std::string> enabled;
  for (const metrics::FitnessMeasure& measure : metrics::FitnessMeasures()) {
    if (options.*measure.enabled) enabled.push_back(measure.name);
  }
  if (enabled.size() == metrics::FitnessMeasures().size()) enabled.clear();
  return enabled;
}

}  // namespace

double ExperimentResult::ImprovementPercent(double start, double end) {
  if (start <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return 100.0 * (start - end) / start;
}

Result<ExperimentResult> RunExperiment(const DatasetCase& dataset_case,
                                       const ExperimentOptions& options) {
  // The runner is a thin adapter now: a DatasetCase + ExperimentOptions is
  // exactly one JobSpec with all stage seeds pinned, executed by the façade.
  api::JobSpec spec;
  spec.name = dataset_case.profile.name;
  spec.source.kind = api::SourceSpec::Kind::kSynthetic;
  spec.source.has_inline_profile = true;
  spec.source.profile = dataset_case.profile;
  spec.methods = api::RosterFromPopulationSpec(dataset_case.population_spec);

  metrics::FitnessEvaluator::Options fitness = options.fitness;
  fitness.aggregation = options.aggregation;
  // All-toggles-false would map onto MeasureSpec's empty list, which means
  // "all enabled" — so the selection is checked here, before the mapping.
  EVOCAT_RETURN_NOT_OK(metrics::CheckMeasureSelection(fitness));
  spec.measures.aggregation = fitness.aggregation;
  spec.measures.il_weight = fitness.il_weight;
  spec.measures.enabled = EnabledMeasures(fitness);
  spec.measures.ctbil_max_dimension = fitness.ctbil_max_dimension;
  spec.measures.id_window_percent = fitness.id_window_percent;
  spec.measures.rsrl_assumed_p_percent = fitness.rsrl_assumed_p_percent;
  spec.measures.prl_em_iterations = fitness.prl_em_iterations;

  spec.ga.generations = options.generations;
  spec.ga.mutation_rate = options.mutation_rate;
  spec.ga.leader_group_size = options.leader_group_size;
  spec.ga.selection = options.selection;
  spec.ga.mutation_excludes_current = options.mutation_excludes_current;

  spec.remove_best_fraction = options.remove_best_fraction;
  spec.seeds.data = options.data_seed;
  spec.seeds.protection = options.protection_seed;
  spec.seeds.ga = options.ga_seed;

  api::Session session;
  EVOCAT_ASSIGN_OR_RETURN(api::RunArtifacts artifacts, session.Run(spec));

  ExperimentResult result;
  result.dataset = artifacts.dataset;
  result.options = options;
  result.initial = ToSummaries(artifacts.initial);
  result.final_population = ToSummaries(artifacts.final_population);
  result.history = std::move(artifacts.history);
  result.stats = artifacts.stats;
  result.initial_scores = ToTriple(artifacts.initial_scores);
  result.final_scores = ToTriple(artifacts.final_scores);
  return result;
}

}  // namespace experiments
}  // namespace evocat
