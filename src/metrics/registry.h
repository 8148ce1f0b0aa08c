/// \file registry.h
/// \brief The IL/DR measure registry (`Registry`, common/registry.h).
///
/// `FitnessEvaluator` binds its measures through this registry, so a measure
/// is reachable by the name a JobSpec uses ("CTBIL", "DBRL", ...) and new
/// measures plug in without touching the evaluator.

#ifndef EVOCAT_METRICS_REGISTRY_H_
#define EVOCAT_METRICS_REGISTRY_H_

#include "common/registry.h"
#include "metrics/measure.h"

namespace evocat {
namespace metrics {

/// \brief Name -> factory registry for `Measure` implementations. `Bind`
/// keeps only the parameter checks that depend on the data.
using MeasureRegistry = Registry<Measure>;

/// \brief Built-in registration hooks, each implemented alongside the measure
/// it registers (self-registration; called once by `Global()`).
void RegisterCtbilMeasure(MeasureRegistry* registry);
void RegisterDbilMeasure(MeasureRegistry* registry);
void RegisterEbilMeasure(MeasureRegistry* registry);
void RegisterIntervalDisclosureMeasure(MeasureRegistry* registry);
void RegisterDbrlMeasure(MeasureRegistry* registry);
void RegisterPrlMeasure(MeasureRegistry* registry);
void RegisterRsrlMeasure(MeasureRegistry* registry);

}  // namespace metrics

template <>
Registry<metrics::Measure>& Registry<metrics::Measure>::Global();

}  // namespace evocat

#endif  // EVOCAT_METRICS_REGISTRY_H_
