#include "evolve/registry.h"

namespace evocat {

template <>
Registry<evolve::EvolutionStrategy>&
Registry<evolve::EvolutionStrategy>::Global() {
  static auto* registry = [] {
    auto* r = new evolve::StrategyRegistry("evolution strategy");
    evolve::RegisterGenerationalStrategy(r);
    evolve::RegisterSteadyStateStrategy(r);
    evolve::RegisterIslandsStrategy(r);
    return r;
  }();
  return *registry;
}

}  // namespace evocat
