/// \file registry.h
/// \brief The protection-method registry (`Registry`, common/registry.h).
///
/// A JobSpec's method roster ("microaggregation", "pram", ...) is expanded
/// through this registry.

#ifndef EVOCAT_PROTECTION_REGISTRY_H_
#define EVOCAT_PROTECTION_REGISTRY_H_

#include "common/registry.h"
#include "protection/method.h"

namespace evocat {
namespace protection {

/// \brief Name -> factory registry for `ProtectionMethod` implementations.
using MethodRegistry = Registry<ProtectionMethod>;

/// \brief Built-in registration hooks, each implemented alongside the method
/// it registers (self-registration; called once by `Global()`).
void RegisterMicroaggregationMethod(MethodRegistry* registry);
void RegisterCodingMethods(MethodRegistry* registry);
void RegisterGlobalRecodingMethod(MethodRegistry* registry);
void RegisterHierarchicalRecodingMethod(MethodRegistry* registry);
void RegisterRankSwappingMethod(MethodRegistry* registry);
void RegisterPramMethod(MethodRegistry* registry);

}  // namespace protection

template <>
Registry<protection::ProtectionMethod>&
Registry<protection::ProtectionMethod>::Global();

}  // namespace evocat

#endif  // EVOCAT_PROTECTION_REGISTRY_H_
