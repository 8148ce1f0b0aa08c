/// \file registry.h
/// \brief String-keyed factory registry for IL/DR measures.
///
/// Mirrors `protection::MethodRegistry`: every measure implementation file
/// registers its own factory (with its parameter schema) through the hook it
/// defines, and `MeasureRegistry::Global()` runs all hooks once on first use.
/// `FitnessEvaluator` binds its measures through this registry, so a measure
/// is reachable by the name a JobSpec uses ("CTBIL", "DBRL", ...) and new
/// measures plug in without touching the evaluator.

#ifndef EVOCAT_METRICS_REGISTRY_H_
#define EVOCAT_METRICS_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/params.h"
#include "common/result.h"
#include "metrics/measure.h"

namespace evocat {
namespace metrics {

/// \brief Builds one configured measure from a parameter map.
///
/// Factories reject unknown, malformed or out-of-range parameters with a
/// Status naming the measure and the field (use `ParamReader`); `Bind` keeps
/// only the checks that depend on the data.
using MeasureFactory =
    std::function<Result<std::unique_ptr<Measure>>(const ParamMap&)>;

/// \brief Name -> factory registry for `Measure` implementations.
///
/// Lookup is case-insensitive ("ctbil" == "CTBIL"); `Names()` reports
/// canonical spellings. Thread-safe.
class MeasureRegistry {
 public:
  /// \brief The process-wide registry, with all built-ins registered.
  static MeasureRegistry& Global();

  /// \brief Registers `factory` under `name`; duplicate names are an error.
  Status Register(const std::string& name, MeasureFactory factory);

  /// \brief Constructs the measure registered under `name`.
  Result<std::unique_ptr<Measure>> Create(const std::string& name,
                                          const ParamMap& params = {}) const;

  bool Contains(const std::string& name) const;

  /// \brief Canonical registered names, sorted.
  std::vector<std::string> Names() const;

 private:
  struct Entry {
    std::string canonical_name;
    MeasureFactory factory;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // keyed by lower-cased name
};

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
}  // namespace evocat

#endif  // EVOCAT_METRICS_REGISTRY_H_
