/// \file registry.h
/// \brief String-keyed factory registry: one class template behind
/// `protection::MethodRegistry`, `metrics::MeasureRegistry` and
/// `evolve::StrategyRegistry`.
///
/// The registries are what let a JobSpec name its methods, measures and
/// strategy declaratively ("microaggregation", "CTBIL", "islands") instead of
/// the caller wiring concrete classes at compile time. Each implementation
/// file registers its own factory — including the parameter schema it
/// accepts — via the hook it defines at the bottom of its .cc; each module's
/// `Global()` invokes its hooks exactly once on first use, which keeps
/// registration inside the implementation files while staying immune to
/// static-library dead-stripping of unreferenced translation units.

#ifndef EVOCAT_COMMON_REGISTRY_H_
#define EVOCAT_COMMON_REGISTRY_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/params.h"
#include "common/result.h"
#include "common/string_utils.h"

namespace evocat {

/// \brief Name -> factory registry for implementations of `T`.
///
/// Lookup is case-insensitive ("ctbil" == "CTBIL"); `Names()` reports
/// canonical (registered) spellings. Thread-safe.
template <typename T>
class Registry {
 public:
  /// \brief Builds one configured `T` from a parameter map.
  ///
  /// Factories reject unknown, malformed or out-of-range parameters with a
  /// Status naming the field as `<name>.<key>` (use `ParamReader`).
  using Factory = std::function<Result<std::unique_ptr<T>>(const ParamMap&)>;

  /// \param noun what the registry holds, as its error messages name it
  ///        ("unknown measure 'x'; known: ...").
  explicit Registry(std::string noun) : noun_(std::move(noun)) {}

  /// \brief The process-wide registry, with all built-ins registered.
  /// Defined (and declared as a specialization) by the module owning `T`.
  static Registry& Global();

  /// \brief Registers `factory` under `name`; duplicate names are an error.
  Status Register(const std::string& name, Factory factory) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string key = ToLower(name);
    if (entries_.count(key)) {
      return Status::AlreadyExists(noun_, " '", name,
                                   "' is already registered");
    }
    entries_[key] = Entry{name, std::move(factory)};
    return Status::OK();
  }

  /// \brief Constructs the `T` registered under `name`.
  Result<std::unique_ptr<T>> Create(const std::string& name,
                                    const ParamMap& params = {}) const {
    Factory factory;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(ToLower(name));
      if (it != entries_.end()) factory = it->second.factory;
    }
    if (!factory) {
      return Status::NotFound("unknown ", noun_, " '", name,
                              "'; known: ", Join(Names(), ','));
    }
    return factory(params);
  }

  bool Contains(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(ToLower(name)) > 0;
  }

  /// \brief Canonical registered names, sorted.
  std::vector<std::string> Names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      (void)key;
      names.push_back(entry.canonical_name);
    }
    std::sort(names.begin(), names.end());
    return names;
  }

 private:
  struct Entry {
    std::string canonical_name;
    Factory factory;
  };

  const std::string noun_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  // keyed by lower-cased name
};

}  // namespace evocat

#endif  // EVOCAT_COMMON_REGISTRY_H_
