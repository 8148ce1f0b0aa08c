/// \file generational.cc
/// \brief The paper-faithful default strategy, and the engine strategy the
/// steady_state factory builds.
///
/// Both delegate to `core::EvolutionEngine::Run` verbatim, so a JobSpec with
/// `strategy: {"name": "generational"}` (or no strategy at all) is
/// bit-identical to the pre-strategy engine — the property the strategy
/// determinism tests pin down — and steady_state with `lambda` 1 is
/// generational under another name.

#include <utility>

#include "core/engine.h"
#include "evolve/registry.h"
#include "evolve/strategy.h"

namespace evocat {
namespace evolve {

namespace {

class EngineStrategy : public EvolutionStrategy {
 public:
  EngineStrategy(std::string name, int lambda)
      : name_(std::move(name)), lambda_(lambda) {}

  std::string name() const override { return name_; }

  Result<core::EvolutionResult> Run(
      const metrics::FitnessEvaluator* evaluator,
      const core::GaConfig& config, std::vector<core::Individual> initial,
      const std::atomic<bool>* cancel) const override {
    core::EvolutionEngine engine(evaluator, config, lambda_);
    return engine.Run(std::move(initial), nullptr, cancel);
  }

 private:
  std::string name_;
  int lambda_;
};

}  // namespace

std::unique_ptr<EvolutionStrategy> NewEngineStrategy(std::string name,
                                                     int lambda) {
  return std::make_unique<EngineStrategy>(std::move(name), lambda);
}

void RegisterGenerationalStrategy(StrategyRegistry* registry) {
  Status status = registry->Register(
      "generational",
      [](const ParamMap& params)
          -> Result<std::unique_ptr<EvolutionStrategy>> {
        ParamReader reader("generational", params);
        EVOCAT_RETURN_NOT_OK(reader.Finish());  // no parameters accepted
        return NewEngineStrategy("generational", 1);
      });
  (void)status;
}

}  // namespace evolve
}  // namespace evocat
