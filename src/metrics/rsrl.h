/// \file rsrl.h
/// \brief Rank-Swapping Record Linkage (Nin, Herranz & Torra 2008).
///
/// The attack that broke rank swapping's presumed safety: knowing (or
/// assuming) that rank swapping displaces each value at most p% of the file
/// in rank, the attacker restricts each original record's candidate masked
/// records to those whose per-attribute mid-ranks all lie within the p%
/// window, and links to the nearest candidate by record distance. The
/// candidate-set intersection across attributes is what makes this attack
/// sharper than plain distance-based linkage on rank-swapped files. Records
/// with an empty candidate set are unlinkable (no credit).
///
/// Without the window this is DBRL (dbrl.h): mid-ranks of non-empty
/// categories lie in [1, n], so at `assumed_p_percent` 100 every pair is a
/// candidate and the two scores agree bit for bit. Both measures bind one
/// incremental state, with and without the window filter
/// (distance_linkage.cc).

#ifndef EVOCAT_METRICS_RSRL_H_
#define EVOCAT_METRICS_RSRL_H_

#include <memory>
#include <string>
#include <vector>

#include "metrics/measure.h"

namespace evocat {
namespace metrics {

/// \brief Rank-window constrained linkage with assumed displacement
/// `assumed_p_percent`.
class RankSwappingRecordLinkage : public Measure {
 public:
  explicit RankSwappingRecordLinkage(double assumed_p_percent = 15.0)
      : assumed_p_percent_(assumed_p_percent) {}

  std::string Name() const override { return "RSRL"; }
  MeasureKind Kind() const override { return MeasureKind::kDisclosureRisk; }

  Result<std::unique_ptr<BoundMeasure>> Bind(
      const Dataset& original, const std::vector<int>& attrs) const override;

  double assumed_p_percent() const { return assumed_p_percent_; }

 private:
  double assumed_p_percent_;
};

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_RSRL_H_
