#include "protection/microaggregation.h"

#include <algorithm>
#include <numeric>

#include "common/string_utils.h"
#include "protection/registry.h"

namespace evocat {
namespace protection {

namespace {

/// Median code of the group's values for an ordinal attribute.
int32_t GroupMedian(std::vector<int32_t> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Plurality code of the group's values (ties -> smallest code).
int32_t GroupMode(const std::vector<int32_t>& values, int cardinality) {
  std::vector<int32_t> counts(static_cast<size_t>(cardinality), 0);
  for (int32_t v : values) counts[static_cast<size_t>(v)] += 1;
  int32_t best = 0;
  for (int32_t c = 1; c < cardinality; ++c) {
    if (counts[static_cast<size_t>(c)] > counts[static_cast<size_t>(best)]) best = c;
  }
  return best;
}

/// Cuts `n` records into consecutive groups of size >= k: all groups have
/// exactly k records except the last, which absorbs the remainder (classic
/// fixed-size heuristic). Returns group boundaries as (start, end] offsets.
std::vector<std::pair<int64_t, int64_t>> CutGroups(int64_t n, int k) {
  std::vector<std::pair<int64_t, int64_t>> groups;
  int64_t num_full = n / k;
  if (num_full == 0) {
    groups.emplace_back(0, n);
    return groups;
  }
  for (int64_t g = 0; g < num_full; ++g) {
    int64_t start = g * k;
    int64_t end = (g == num_full - 1) ? n : start + k;
    groups.emplace_back(start, end);
  }
  return groups;
}

/// Replaces the values of `attr` within each group (of sorted record order)
/// by the group centroid.
void AggregateAttr(const Dataset& original, Dataset* masked, int attr,
                   const std::vector<int64_t>& order,
                   const std::vector<std::pair<int64_t, int64_t>>& groups) {
  const Attribute& spec = original.schema().attribute(attr);
  std::vector<int32_t> values;
  for (const auto& [start, end] : groups) {
    values.clear();
    for (int64_t i = start; i < end; ++i) {
      values.push_back(original.Code(order[static_cast<size_t>(i)], attr));
    }
    int32_t centroid = spec.kind() == AttrKind::kOrdinal
                           ? GroupMedian(values)
                           : GroupMode(values, spec.cardinality());
    for (int64_t i = start; i < end; ++i) {
      masked->SetCode(order[static_cast<size_t>(i)], attr, centroid);
    }
  }
}

/// Record order sorted by the lexicographic key over `key_attrs` (stable by
/// record index for determinism).
std::vector<int64_t> LexicographicOrder(const Dataset& dataset,
                                        const std::vector<int>& key_attrs) {
  std::vector<int64_t> order(static_cast<size_t>(dataset.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    for (int attr : key_attrs) {
      int32_t ca = dataset.Code(a, attr);
      int32_t cb = dataset.Code(b, attr);
      if (ca != cb) return ca < cb;
    }
    return a < b;
  });
  return order;
}

/// Record order sorted by a weighted sum of normalized codes.
std::vector<int64_t> ProjectionOrder(const Dataset& dataset,
                                     const std::vector<int>& attrs,
                                     const std::vector<double>& weights) {
  std::vector<double> keys(static_cast<size_t>(dataset.num_rows()), 0.0);
  for (size_t ai = 0; ai < attrs.size(); ++ai) {
    int attr = attrs[ai];
    double denom =
        std::max(1, dataset.schema().attribute(attr).cardinality() - 1);
    for (int64_t r = 0; r < dataset.num_rows(); ++r) {
      keys[static_cast<size_t>(r)] +=
          weights[ai] * static_cast<double>(dataset.Code(r, attr)) / denom;
    }
  }
  std::vector<int64_t> order(static_cast<size_t>(dataset.num_rows()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    double ka = keys[static_cast<size_t>(a)];
    double kb = keys[static_cast<size_t>(b)];
    if (ka != kb) return ka < kb;
    return a < b;
  });
  return order;
}

/// Rotates `attrs` so that index `first` leads the lexicographic key.
std::vector<int> RotatedAttrs(const std::vector<int>& attrs, size_t first) {
  std::vector<int> key;
  for (size_t i = 0; i < attrs.size(); ++i) {
    key.push_back(attrs[(first + i) % attrs.size()]);
  }
  return key;
}

}  // namespace

const char* MicroOrderingToString(MicroOrdering ordering) {
  switch (ordering) {
    case MicroOrdering::kUnivariate:
      return "univariate";
    case MicroOrdering::kSortByAttr0:
      return "sort0";
    case MicroOrdering::kSortByAttr1:
      return "sort1";
    case MicroOrdering::kSortByAttr2:
      return "sort2";
    case MicroOrdering::kSortBySum:
      return "sum";
    case MicroOrdering::kRandomProjection:
      return "randproj";
  }
  return "?";
}

std::string Microaggregation::Params() const {
  return StrFormat("k=%d,order=%s", k_, MicroOrderingToString(ordering_));
}

Result<Dataset> Microaggregation::Protect(const Dataset& original,
                                          const std::vector<int>& attrs,
                                          Rng* rng) const {
  EVOCAT_RETURN_NOT_OK(ValidateAttrs(original, attrs));
  if (k_ < 2) {
    return Status::Invalid("microaggregation requires k >= 2, got ", k_);
  }

  Dataset masked = original.Clone();
  auto groups = CutGroups(original.num_rows(), k_);

  if (ordering_ == MicroOrdering::kUnivariate) {
    // Each attribute gets its own ordering and grouping.
    for (int attr : attrs) {
      auto order = LexicographicOrder(original, {attr});
      AggregateAttr(original, &masked, attr, order, groups);
    }
    return masked;
  }

  std::vector<int64_t> order;
  switch (ordering_) {
    case MicroOrdering::kSortByAttr0:
      order = LexicographicOrder(original, RotatedAttrs(attrs, 0));
      break;
    case MicroOrdering::kSortByAttr1:
      order = LexicographicOrder(original,
                                 RotatedAttrs(attrs, attrs.size() > 1 ? 1 : 0));
      break;
    case MicroOrdering::kSortByAttr2:
      order = LexicographicOrder(original,
                                 RotatedAttrs(attrs, attrs.size() > 2 ? 2 : 0));
      break;
    case MicroOrdering::kSortBySum: {
      std::vector<double> weights(attrs.size(), 1.0);
      order = ProjectionOrder(original, attrs, weights);
      break;
    }
    case MicroOrdering::kRandomProjection: {
      std::vector<double> weights(attrs.size());
      for (double& w : weights) w = rng->UniformDouble(0.25, 1.0);
      order = ProjectionOrder(original, attrs, weights);
      break;
    }
    case MicroOrdering::kUnivariate:
      break;  // handled above
  }

  for (int attr : attrs) {
    AggregateAttr(original, &masked, attr, order, groups);
  }
  return masked;
}

Result<MicroOrdering> MicroOrderingFromString(const std::string& name) {
  for (MicroOrdering ordering :
       {MicroOrdering::kUnivariate, MicroOrdering::kSortByAttr0,
        MicroOrdering::kSortByAttr1, MicroOrdering::kSortByAttr2,
        MicroOrdering::kSortBySum, MicroOrdering::kRandomProjection}) {
    if (name == MicroOrderingToString(ordering)) return ordering;
  }
  return Status::Invalid("unknown microaggregation ordering '", name,
                         "'; expected univariate|sort0|sort1|sort2|sum|"
                         "randproj");
}

void RegisterMicroaggregationMethod(MethodRegistry* registry) {
  registry->Register(
      "microaggregation",
      [](const ParamMap& params) -> Result<std::unique_ptr<ProtectionMethod>> {
        ParamReader reader("microaggregation", params);
        int k = reader.GetInt("k", 3);
        std::string ordering_name = reader.GetString("ordering", "univariate");
        EVOCAT_RETURN_NOT_OK(reader.Finish());
        EVOCAT_ASSIGN_OR_RETURN(MicroOrdering ordering,
                                MicroOrderingFromString(ordering_name));
        return std::unique_ptr<ProtectionMethod>(
            new Microaggregation(k, ordering));
      });
}

}  // namespace protection
}  // namespace evocat
