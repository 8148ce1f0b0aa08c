/// \file test_util.h
/// \brief Shared helpers for the evocat test suite.

#ifndef EVOCAT_TESTS_TEST_UTIL_H_
#define EVOCAT_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/task_scheduler.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "datagen/generator.h"
#include "datagen/profile.h"
#include "protection/pram.h"

namespace evocat {
namespace testing {

/// \brief Attribute blueprint for BuildDataset.
struct TestAttr {
  std::string name;
  AttrKind kind;
  int cardinality;
};

/// \brief Builds a dataset with the given attributes (full domains
/// pre-registered as "<name>_<code>") and rows of codes.
inline Dataset BuildDataset(const std::vector<TestAttr>& attrs,
                            const std::vector<std::vector<int32_t>>& rows) {
  auto schema = std::make_shared<Schema>();
  for (const auto& spec : attrs) {
    Attribute attribute(spec.name, spec.kind);
    for (int c = 0; c < spec.cardinality; ++c) {
      attribute.dictionary().GetOrAdd(spec.name + "_" + std::to_string(c));
    }
    schema->AddAttribute(std::move(attribute));
  }
  Dataset dataset(schema);
  for (const auto& row : rows) {
    auto status = dataset.AppendRowCodes(row);
    if (!status.ok()) std::abort();
  }
  return dataset;
}

/// \brief All attribute indices of a dataset.
inline std::vector<int> AllAttrs(const Dataset& dataset) {
  std::vector<int> attrs;
  for (int a = 0; a < dataset.num_attributes(); ++a) attrs.push_back(a);
  return attrs;
}

/// \brief Number of cells that differ between two datasets over `attrs`.
inline int64_t CountDiffs(const Dataset& x, const Dataset& y,
                          const std::vector<int>& attrs) {
  int64_t diffs = 0;
  for (int attr : attrs) {
    for (int64_t r = 0; r < x.num_rows(); ++r) {
      if (x.Code(r, attr) != y.Code(r, attr)) ++diffs;
    }
  }
  return diffs;
}

/// \brief Runs `fn` as one task on a private scheduler with `workers`
/// threads and waits for it. Everything `fn` binds or evaluates then sees
/// that scheduler: its parallel loops split over `workers` threads and the
/// measures shard their builds `workers` ways.
inline void RunOnScheduler(int workers, const std::function<void()>& fn) {
  TaskScheduler scheduler(workers);
  TaskScheduler::Group group;
  scheduler.Submit(&group, fn);
  scheduler.Wait(&group);
}

/// \brief An (original, masked, protected-attrs) fixture at any record
/// count: the Adult-shaped synthetic profile scaled to `rows` and perturbed
/// by PRAM. The scale-parameterized oracle tests and benches run the same
/// shape from 10^3 to 10^6 rows.
struct ScaleWorld {
  Dataset original;
  Dataset masked;
  std::vector<int> attrs;
};

inline ScaleWorld MakeScaleWorld(int64_t rows, uint64_t seed) {
  auto profile = datagen::AdultProfile();
  profile.num_records = rows;
  ScaleWorld world;
  world.original = datagen::Generate(profile, seed).ValueOrDie();
  world.attrs = datagen::ProtectedAttributeIndices(profile, world.original)
                    .ValueOrDie();
  Rng rng(seed + 1);
  world.masked = protection::Pram(0.5)
                     .Protect(world.original, world.attrs, &rng)
                     .ValueOrDie();
  return world;
}

}  // namespace testing
}  // namespace evocat

#endif  // EVOCAT_TESTS_TEST_UTIL_H_
