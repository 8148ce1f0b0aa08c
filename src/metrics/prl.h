/// \file prl.h
/// \brief Probabilistic Record Linkage (Fellegi–Sunter model, EM-fitted),
/// following Domingo-Ferrer & Torra 2002 for categorical microdata.
///
/// Every (original, masked) record pair is summarized by its agreement
/// pattern over the protected attributes. The Fellegi–Sunter mixture
/// parameters — m_k = P(agree on attribute k | true match), u_k = P(agree |
/// non-match) and the match prevalence — are estimated by EM over the pattern
/// counts of all n^2 pairs. Each original record is then linked to the masked
/// record with the highest log-likelihood-ratio weight; correct links (ties
/// sharing credit) give the risk percentage.

#ifndef EVOCAT_METRICS_PRL_H_
#define EVOCAT_METRICS_PRL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/measure.h"

namespace evocat {
namespace metrics {

/// \brief EM-fitted Fellegi–Sunter re-identification risk.
class ProbabilisticRecordLinkage : public Measure {
 public:
  /// \param em_iterations budget of EM refinement sweeps over the pattern
  ///        counts (the pattern space is tiny — 2^|attrs| — so sweeps are
  ///        cheap). The fit stops early only at a bitwise fixed point; at
  ///        the default of 50 the paper files stop on the budget.
  explicit ProbabilisticRecordLinkage(int em_iterations = 50)
      : em_iterations_(em_iterations) {}

  std::string Name() const override { return "PRL"; }
  MeasureKind Kind() const override { return MeasureKind::kDisclosureRisk; }

  Result<std::unique_ptr<BoundMeasure>> Bind(
      const Dataset& original, const std::vector<int>& attrs) const override;

  int em_iterations() const { return em_iterations_; }

 private:
  int em_iterations_;
};

/// \brief Fellegi–Sunter parameters fitted by EM (exposed for tests).
struct FellegiSunterModel {
  std::vector<double> m;  ///< P(agree on attr k | match)
  std::vector<double> u;  ///< P(agree on attr k | non-match)
  double match_prevalence = 0.0;

  /// \brief Log-likelihood-ratio weight of an agreement pattern (bitmask).
  double PatternWeight(uint32_t pattern) const;
};

/// \brief Fits the Fellegi–Sunter model to agreement-pattern counts.
///
/// `pattern_counts[p]` is the number of record pairs whose agreement bitmask
/// equals `p`; `num_attrs` is the number of compared attributes.
FellegiSunterModel FitFellegiSunter(const std::vector<double>& pattern_counts,
                                    int num_attrs, int em_iterations);

/// \brief Sparse-count fit: entries are (pattern, count) pairs sorted by
/// ascending pattern. Runs the identical floating-point sequence as the
/// dense overload over the nonzero patterns, so both routes agree
/// bit-for-bit — this is what keeps the compressed pattern-histogram state
/// exact against the dense full-evaluation oracle at any attribute count.
FellegiSunterModel FitFellegiSunter(
    const std::vector<std::pair<uint32_t, double>>& pattern_counts,
    int num_attrs, int em_iterations);

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_PRL_H_
