#include "protection/global_recoding.h"

#include <algorithm>

#include "common/string_utils.h"
#include "protection/registry.h"

namespace evocat {
namespace protection {

std::string GlobalRecoding::Params() const {
  return StrFormat("group=%d", group_size_);
}

int32_t GlobalRecoding::Representative(int32_t code, int cardinality) const {
  int32_t group = code / group_size_;
  int32_t start = group * group_size_;
  int32_t end = std::min(start + group_size_, cardinality);  // exclusive
  // If the tail group is a singleton remainder, merge it into the previous
  // group so no category escapes generalization.
  if (end - start == 1 && start > 0) {
    start -= group_size_;
  }
  return start + (std::min(end, cardinality) - start - 1) / 2;
}

Result<Dataset> GlobalRecoding::Protect(const Dataset& original,
                                        const std::vector<int>& attrs,
                                        Rng* /*rng*/) const {
  EVOCAT_RETURN_NOT_OK(ValidateAttrs(original, attrs));
  if (group_size_ < 2) {
    return Status::Invalid("global recoding requires group size >= 2, got ",
                           group_size_);
  }
  Dataset masked = original.Clone();
  for (int attr : attrs) {
    int cardinality = original.schema().attribute(attr).cardinality();
    auto& col = masked.mutable_column(attr);
    for (auto& code : col) {
      code = Representative(code, cardinality);
    }
  }
  return masked;
}

void RegisterGlobalRecodingMethod(MethodRegistry* registry) {
  registry->Register(
      "globalrecoding",
      [](const ParamMap& params) -> Result<std::unique_ptr<ProtectionMethod>> {
        ParamReader reader("globalrecoding", params);
        int group_size = reader.GetInt("group_size", 2);
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        return std::unique_ptr<ProtectionMethod>(
            new GlobalRecoding(group_size));
      });
}

}  // namespace protection
}  // namespace evocat
