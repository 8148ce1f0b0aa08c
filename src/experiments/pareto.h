/// \file pareto.h
/// \brief Multi-objective (Pareto) analysis of (IL, DR) populations.
///
/// The paper collapses the IL/DR trade-off to a scalar score; its dispersion
/// figures, however, are exactly the multi-objective picture. This module
/// quantifies those clouds: the non-dominated (Pareto) front and the
/// dominated hypervolume against the worst point (100, 100). A protection
/// run improved in the multi-objective sense when the final front's
/// hypervolume exceeds the initial front's.

#ifndef EVOCAT_EXPERIMENTS_PARETO_H_
#define EVOCAT_EXPERIMENTS_PARETO_H_

#include <cstddef>
#include <vector>

#include "api/session.h"

namespace evocat {
namespace experiments {

/// \brief True when `a` Pareto-dominates `b` (both objectives minimized:
/// no worse in either, strictly better in at least one).
bool Dominates(const api::MemberSummary& a, const api::MemberSummary& b);

/// \brief Indices of the non-dominated members, sorted by ascending IL.
std::vector<size_t> ParetoFrontIndices(
    const std::vector<api::MemberSummary>& members);

/// \brief Hypervolume dominated by the population's Pareto front relative to
/// the reference point (ref_il, ref_dr), normalized to [0, 1].
///
/// Larger is better. Points at or beyond the reference contribute nothing.
double DominatedHypervolume(const std::vector<api::MemberSummary>& members,
                            double ref_il = 100.0, double ref_dr = 100.0);

/// \brief Aggregate multi-objective statistics of one population.
struct ParetoStats {
  /// Non-dominated members, ascending IL (descending DR).
  std::vector<api::MemberSummary> front;
  /// Normalized dominated hypervolume w.r.t. (100, 100).
  double hypervolume = 0.0;
  /// Fraction of members that are dominated by some other member.
  double dominated_fraction = 0.0;
};

/// \brief Computes front, hypervolume and dominated fraction.
ParetoStats AnalyzePareto(const std::vector<api::MemberSummary>& members);

}  // namespace experiments
}  // namespace evocat

#endif  // EVOCAT_EXPERIMENTS_PARETO_H_
