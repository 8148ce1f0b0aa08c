#include "metrics/registry.h"

namespace evocat {

template <>
Registry<metrics::Measure>& Registry<metrics::Measure>::Global() {
  static auto* registry = [] {
    auto* r = new metrics::MeasureRegistry("measure");
    metrics::RegisterCtbilMeasure(r);
    metrics::RegisterDbilMeasure(r);
    metrics::RegisterEbilMeasure(r);
    metrics::RegisterIntervalDisclosureMeasure(r);
    metrics::RegisterDbrlMeasure(r);
    metrics::RegisterPrlMeasure(r);
    metrics::RegisterRsrlMeasure(r);
    return r;
  }();
  return *registry;
}

}  // namespace evocat
