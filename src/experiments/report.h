/// \file report.h
/// \brief Emitters turning a job's artifacts into the paper's figures/tables.
///
/// Benches print machine-readable CSV rows prefixed by a series tag, plus a
/// human-readable summary mirroring the percentages quoted in the paper's
/// running text.

#ifndef EVOCAT_EXPERIMENTS_REPORT_H_
#define EVOCAT_EXPERIMENTS_REPORT_H_

#include <iosfwd>
#include <vector>

#include "api/session.h"

namespace evocat {
namespace experiments {

/// \brief Dispersion-figure data: `dispersion,<phase>,<index>,<il>,<dr>,
/// <score>,<origin>` rows for the initial and final populations.
void PrintDispersionCsv(const api::RunArtifacts& run, std::ostream& out);

/// \brief Evolution-figure data: `evolution,<generation>,<min>,<mean>,<max>,
/// <operator>` rows (generation 0 is the initial population).
void PrintEvolutionCsv(const api::RunArtifacts& run, std::ostream& out);

/// \brief Paper-style improvement summary for max/mean/min scores.
void PrintImprovementSummary(const api::RunArtifacts& run, std::ostream& out);

/// \brief Timing table mirroring the paper's §3.2 in-text numbers: average
/// wall time of mutation vs crossover generations, split into fitness
/// evaluation and everything else.
void PrintTimingSummary(const api::RunArtifacts& run, std::ostream& out);

/// \brief Measures how balanced the final cloud is: mean |IL - DR| of a
/// population (paper §3.2 discusses balance under Eq. 2).
double MeanImbalance(const std::vector<api::MemberSummary>& members);

/// \brief Percentage improvement (start -> end) of a score statistic.
///
/// Undefined for non-positive start scores — the ratio would claim "no
/// improvement" (or a nonsensical sign) — so those return NaN; reports
/// print "n/a" for NaN rather than a number.
double ImprovementPercent(double start, double end);

}  // namespace experiments
}  // namespace evocat

#endif  // EVOCAT_EXPERIMENTS_REPORT_H_
