#include "protection/hierarchical_recoding.h"

#include <algorithm>

#include "common/string_utils.h"
#include "protection/registry.h"

namespace evocat {
namespace protection {

std::string HierarchicalRecoding::Params() const {
  return StrFormat("level=%d,fanout=%d", level_, fanout_);
}

Result<Dataset> HierarchicalRecoding::Protect(const Dataset& original,
                                              const std::vector<int>& attrs,
                                              Rng* /*rng*/) const {
  EVOCAT_RETURN_NOT_OK(ValidateAttrs(original, attrs));
  if (level_ < 1) {
    return Status::Invalid("hierarchical recoding level must be >= 1, got ",
                           level_);
  }
  if (fanout_ < 2) {
    return Status::Invalid("hierarchical recoding fanout must be >= 2, got ",
                           fanout_);
  }

  Dataset masked = original.Clone();
  for (int attr : attrs) {
    int cardinality = original.schema().attribute(attr).cardinality();
    EVOCAT_ASSIGN_OR_RETURN(ValueHierarchy hierarchy,
                            ValueHierarchy::BuildBalanced(cardinality, fanout_));
    int level = std::min(level_, hierarchy.num_levels() - 1);
    auto& column = masked.mutable_column(attr);
    for (auto& code : column) {
      code = hierarchy.RepresentativeOf(code, level);
    }
  }
  return masked;
}

void RegisterHierarchicalRecodingMethod(MethodRegistry* registry) {
  registry->Register(
      "hierarchicalrecoding",
      [](const ParamMap& params) -> Result<std::unique_ptr<ProtectionMethod>> {
        ParamReader reader("hierarchicalrecoding", params);
        int level = reader.GetInt("level", 1);
        int fanout = reader.GetInt("fanout", 2);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<ProtectionMethod>(
            new HierarchicalRecoding(level, fanout));
      });
}

}  // namespace protection
}  // namespace evocat
