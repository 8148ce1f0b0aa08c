/// \file registry.h
/// \brief The evolution-strategy registry (`Registry`, common/registry.h).
///
/// A JobSpec's `strategy` object ({"name": ..., "params": {...}}) is resolved
/// here, so new strategies plug in without touching the Session.

#ifndef EVOCAT_EVOLVE_REGISTRY_H_
#define EVOCAT_EVOLVE_REGISTRY_H_

#include "common/registry.h"
#include "evolve/strategy.h"

namespace evocat {
namespace evolve {

/// \brief Name -> factory registry for `EvolutionStrategy` implementations.
using StrategyRegistry = Registry<EvolutionStrategy>;

/// \brief Built-in registration hooks, each implemented alongside the
/// strategy it registers (self-registration; called once by `Global()`).
void RegisterGenerationalStrategy(StrategyRegistry* registry);
void RegisterSteadyStateStrategy(StrategyRegistry* registry);
void RegisterIslandsStrategy(StrategyRegistry* registry);

}  // namespace evolve

template <>
Registry<evolve::EvolutionStrategy>&
Registry<evolve::EvolutionStrategy>::Global();

}  // namespace evocat

#endif  // EVOCAT_EVOLVE_REGISTRY_H_
