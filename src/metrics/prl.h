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
  /// \param em_iterations number of EM refinement sweeps over the pattern
  ///        counts (the pattern space is tiny — 2^|attrs| — so sweeps are
  ///        cheap; 50 is far past convergence for these files).
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

/// \brief Warm-started sparse fit for the incremental delta path.
///
/// Runs a short budget of EM sweeps from `warm_start` (normally the previous
/// refit's model — a single-cell delta barely moves the pattern counts, so
/// the old model is already next to the new fixed point). A sweep that
/// leaves the model bitwise unchanged is an exact fixed point — every
/// further sweep would recompute identical E- and M-steps — so the fit stops
/// there and reports `*warm_hit = true`. If no fixed point appears within
/// the warm budget (a large delta moved the counts too far), or the warm
/// model has the wrong arity, or `em_iterations` is too small for the cold
/// trajectory itself to converge, the warm attempt is discarded and the
/// standard cold fit runs unchanged (`*warm_hit = false`).
///
/// A warm hit is exactly self-consistent but not bitwise equal to the cold
/// trajectory's own frozen point: near convergence each EM sweep moves the
/// parameters by less than one ulp, so the map freezes anywhere on a small
/// plateau (~1e-4 wide in the parameters) and the two trajectories stop at
/// different points on it. The delta state carries its model through every
/// apply and revert, so a walk replays bit-identically at any shard count —
/// the invariant the scale oracle's 1/3/8-worker traces check. Against a
/// cold from-scratch fit the linkage credit only moves if a pattern weight
/// crosses a tie boundary, which the 1e-9 `Compute` checks guard on real
/// walks.
FellegiSunterModel FitFellegiSunterWarm(
    const std::vector<std::pair<uint32_t, double>>& pattern_counts,
    int num_attrs, int em_iterations, const FellegiSunterModel& warm_start,
    bool* warm_hit);

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_PRL_H_
