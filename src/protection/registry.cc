#include "protection/registry.h"

namespace evocat {

template <>
Registry<protection::ProtectionMethod>&
Registry<protection::ProtectionMethod>::Global() {
  static auto* registry = [] {
    auto* r = new protection::MethodRegistry("protection method");
    protection::RegisterMicroaggregationMethod(r);
    protection::RegisterCodingMethods(r);
    protection::RegisterGlobalRecodingMethod(r);
    protection::RegisterHierarchicalRecodingMethod(r);
    protection::RegisterRankSwappingMethod(r);
    protection::RegisterPramMethod(r);
    return r;
  }();
  return *registry;
}

}  // namespace evocat
