#include "experiments/report.h"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>

#include "core/engine.h"

namespace evocat {
namespace experiments {

void PrintDispersionCsv(const api::RunArtifacts& run, std::ostream& out) {
  out << "series,phase,index,il,dr,score,origin\n";
  auto print_phase = [&](const char* phase,
                         const std::vector<api::MemberSummary>& members) {
    for (size_t i = 0; i < members.size(); ++i) {
      const auto& m = members[i];
      out << "dispersion," << phase << ',' << i << ',' << std::fixed
          << std::setprecision(3) << m.fitness.il << ',' << m.fitness.dr
          << ',' << m.fitness.score << ',' << m.origin << '\n';
    }
  };
  print_phase("initial", run.initial);
  print_phase("final", run.final_population);
}

void PrintEvolutionCsv(const api::RunArtifacts& run, std::ostream& out) {
  out << "series,generation,min_score,mean_score,max_score,operator\n";
  out << "evolution,0," << std::fixed << std::setprecision(3)
      << run.initial_scores.min << ',' << run.initial_scores.mean << ','
      << run.initial_scores.max << ",initial\n";
  for (const auto& record : run.history) {
    out << "evolution," << record.generation << ',' << std::fixed
        << std::setprecision(3) << record.min_score << ',' << record.mean_score
        << ',' << record.max_score << ','
        << core::OperatorKindToString(record.op) << '\n';
  }
}

void PrintImprovementSummary(const api::RunArtifacts& run, std::ostream& out) {
  auto line = [&](const char* stat, double start, double end) {
    out << "  " << stat << " score: " << std::fixed << std::setprecision(2)
        << start << " -> " << end;
    double improvement = ImprovementPercent(start, end);
    if (std::isnan(improvement)) {
      out << "  (improvement n/a: non-positive start score)\n";
    } else {
      out << "  (" << improvement << "% improvement)\n";
    }
  };
  out << "[" << run.dataset << "] aggregation="
      << metrics::ScoreAggregationToString(run.spec.measures.aggregation)
      << " generations=" << run.history.size()
      << " population=" << run.final_population.size() << "\n";
  line("max ", run.initial_scores.max, run.final_scores.max);
  line("mean", run.initial_scores.mean, run.final_scores.mean);
  line("min ", run.initial_scores.min, run.final_scores.min);
  out << "  balance |IL-DR|: initial " << std::fixed << std::setprecision(2)
      << MeanImbalance(run.initial) << " -> final "
      << MeanImbalance(run.final_population) << "\n";
}

void PrintTimingSummary(const api::RunArtifacts& run, std::ostream& out) {
  const auto& stats = run.stats;
  auto avg = [](double total, int64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  double mut_total = avg(stats.mutation_total_seconds, stats.mutation_generations);
  double mut_eval = avg(stats.mutation_eval_seconds, stats.mutation_generations);
  double cross_total =
      avg(stats.crossover_total_seconds, stats.crossover_generations);
  double cross_eval =
      avg(stats.crossover_eval_seconds, stats.crossover_generations);

  out << "series,operator,generations,avg_total_s,avg_fitness_s,avg_rest_s,"
         "fitness_share\n";
  out << "timing,mutation," << stats.mutation_generations << ',' << std::fixed
      << std::setprecision(6) << mut_total << ',' << mut_eval << ','
      << (mut_total - mut_eval) << ',' << std::setprecision(4)
      << (mut_total > 0 ? mut_eval / mut_total : 0.0) << '\n';
  out << "timing,crossover," << stats.crossover_generations << ',' << std::fixed
      << std::setprecision(6) << cross_total << ',' << cross_eval << ','
      << (cross_total - cross_eval) << ',' << std::setprecision(4)
      << (cross_total > 0 ? cross_eval / cross_total : 0.0) << '\n';
}

double MeanImbalance(const std::vector<api::MemberSummary>& members) {
  if (members.empty()) return 0.0;
  double total = 0.0;
  for (const auto& m : members) total += std::fabs(m.fitness.il - m.fitness.dr);
  return total / static_cast<double>(members.size());
}

double ImprovementPercent(double start, double end) {
  if (start <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  return 100.0 * (start - end) / start;
}

}  // namespace experiments
}  // namespace evocat
