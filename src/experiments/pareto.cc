#include "experiments/pareto.h"

#include <algorithm>

namespace evocat {
namespace experiments {

bool Dominates(const api::MemberSummary& a, const api::MemberSummary& b) {
  const metrics::FitnessBreakdown& x = a.fitness;
  const metrics::FitnessBreakdown& y = b.fitness;
  return x.il <= y.il && x.dr <= y.dr && (x.il < y.il || x.dr < y.dr);
}

std::vector<size_t> ParetoFrontIndices(
    const std::vector<api::MemberSummary>& members) {
  std::vector<size_t> front;
  for (size_t i = 0; i < members.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < members.size(); ++j) {
      if (j != i && Dominates(members[j], members[i])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(i);
  }
  std::sort(front.begin(), front.end(), [&](size_t a, size_t b) {
    const metrics::FitnessBreakdown& x = members[a].fitness;
    const metrics::FitnessBreakdown& y = members[b].fitness;
    if (x.il != y.il) return x.il < y.il;
    return x.dr < y.dr;
  });
  // Duplicate (IL, DR) points add no hypervolume and clutter the front.
  front.erase(std::unique(front.begin(), front.end(),
                          [&](size_t a, size_t b) {
                            const metrics::FitnessBreakdown& x =
                                members[a].fitness;
                            const metrics::FitnessBreakdown& y =
                                members[b].fitness;
                            return x.il == y.il && x.dr == y.dr;
                          }),
              front.end());
  return front;
}

double DominatedHypervolume(const std::vector<api::MemberSummary>& members,
                            double ref_il, double ref_dr) {
  if (ref_il <= 0.0 || ref_dr <= 0.0) return 0.0;
  auto front = ParetoFrontIndices(members);
  // Sweep the front in ascending IL; each point contributes the rectangle
  // between its DR and the previous (higher) DR, out to the IL reference.
  double hypervolume = 0.0;
  double prev_dr = ref_dr;
  for (size_t idx : front) {
    const metrics::FitnessBreakdown& p = members[idx].fitness;
    if (p.il >= ref_il || p.dr >= prev_dr) continue;
    hypervolume += (ref_il - p.il) * (prev_dr - std::max(p.dr, 0.0));
    prev_dr = std::max(p.dr, 0.0);
    if (prev_dr <= 0.0) break;
  }
  return hypervolume / (ref_il * ref_dr);
}

ParetoStats AnalyzePareto(const std::vector<api::MemberSummary>& members) {
  ParetoStats stats;
  auto front = ParetoFrontIndices(members);
  stats.front.reserve(front.size());
  for (size_t idx : front) stats.front.push_back(members[idx]);
  stats.hypervolume = DominatedHypervolume(members);
  // Dominated fraction counts members beaten by at least one other member
  // (duplicates of front points count as non-dominated).
  size_t dominated = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    for (size_t j = 0; j < members.size(); ++j) {
      if (j != i && Dominates(members[j], members[i])) {
        ++dominated;
        break;
      }
    }
  }
  stats.dominated_fraction =
      members.empty() ? 0.0
                      : static_cast<double>(dominated) /
                            static_cast<double>(members.size());
  return stats;
}

}  // namespace experiments
}  // namespace evocat
