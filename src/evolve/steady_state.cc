/// \file steady_state.cc
/// \brief Steady-state strategy: the engine's step with `lambda` offspring
/// batches per generation (`core::GenerationStepper`), built by
/// `NewEngineStrategy` (generational.cc).

#include "evolve/registry.h"
#include "evolve/strategy.h"

namespace evocat {
namespace evolve {

void RegisterSteadyStateStrategy(StrategyRegistry* registry) {
  Status status = registry->Register(
      "steady_state",
      [](const ParamMap& params)
          -> Result<std::unique_ptr<EvolutionStrategy>> {
        ParamReader reader("steady_state", params);
        int lambda = reader.GetInt("lambda", 8, 1, 4096);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return NewEngineStrategy("steady_state", lambda);
      });
  (void)status;
}

}  // namespace evolve
}  // namespace evocat
