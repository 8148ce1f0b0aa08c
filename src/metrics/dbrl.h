/// \file dbrl.h
/// \brief Distance-Based Record Linkage (Domingo-Ferrer & Torra 2002).
///
/// The attacker links every original record to the nearest masked record
/// under the categorical record distance. A record is correctly re-identified
/// when its own masked counterpart is (one of) the nearest; ties share credit
/// 1/|argmin| — the attacker picking uniformly among equally near candidates.
/// DBRL is the expected percentage of correct re-identifications; identity
/// masking of a duplicate-free file gives 100.
///
/// DBRL is RSRL's attack (rsrl.h) without the rank window: RSRL at
/// `assumed_p_percent` 100 admits every pair and scores the same, bit for
/// bit. Both measures bind one incremental state, with and without the
/// window filter (distance_linkage.cc).

#ifndef EVOCAT_METRICS_DBRL_H_
#define EVOCAT_METRICS_DBRL_H_

#include <memory>
#include <string>
#include <vector>

#include "metrics/measure.h"

namespace evocat {
namespace metrics {

/// \brief Nearest-neighbour re-identification risk.
class DistanceBasedRecordLinkage : public Measure {
 public:
  std::string Name() const override { return "DBRL"; }
  MeasureKind Kind() const override { return MeasureKind::kDisclosureRisk; }

  Result<std::unique_ptr<BoundMeasure>> Bind(
      const Dataset& original, const std::vector<int>& attrs) const override;
};

}  // namespace metrics
}  // namespace evocat

#endif  // EVOCAT_METRICS_DBRL_H_
