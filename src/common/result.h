/// \file result.h
/// \brief `Result<T>`: a value or the `Status` explaining why there is none.

#ifndef EVOCAT_COMMON_RESULT_H_
#define EVOCAT_COMMON_RESULT_H_

#include <cstdlib>
#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/status.h"

namespace evocat {

/// \brief Either a `T` (success) or a non-OK `Status` (failure).
///
/// Mirrors `arrow::Result`. Construction from a `T` yields a success value;
/// construction from a non-OK `Status` yields a failure. Constructing from an
/// OK status is a programming error and is converted to an Internal error.
template <typename T>
class Result {
 public:
  /// Success.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Failure; `status` must not be OK.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT(runtime/explicit)
    if (std::get<Status>(repr_).ok()) {
      repr_ = Status::Internal("Result constructed from an OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// \brief The failure status, or OK when a value is held.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  /// \brief Borrow the value; requires `ok()`.
  const T& ValueOrDie() const& {
    DieIfError();
    return std::get<T>(repr_);
  }
  T& ValueOrDie() & {
    DieIfError();
    return std::get<T>(repr_);
  }
  /// \brief Move the value out; requires `ok()`.
  T ValueOrDie() && {
    DieIfError();
    return std::move(std::get<T>(repr_));
  }

  /// \brief Shorthand aliases matching Arrow naming.
  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// \brief The value, or `fallback` on failure.
  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(repr_) : std::move(fallback);
  }

 private:
  void DieIfError() const {
    if (!ok()) {
      EVOCAT_LOG(ERROR) << "Fatal: ValueOrDie on error result: "
                        << std::get<Status>(repr_).ToString();
      std::abort();
    }
  }

  std::variant<Status, T> repr_;
};

/// \brief Assigns the value of a `Result` expression or propagates its error.
///
/// Usage: `EVOCAT_ASSIGN_OR_RETURN(auto ds, ReadCsvFile(path));`
#define EVOCAT_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                 \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).ValueOrDie()

#define EVOCAT_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define EVOCAT_ASSIGN_OR_RETURN_NAME(x, y) EVOCAT_ASSIGN_OR_RETURN_CONCAT(x, y)

#define EVOCAT_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  EVOCAT_ASSIGN_OR_RETURN_IMPL(                                              \
      EVOCAT_ASSIGN_OR_RETURN_NAME(_evocat_result_, __LINE__), lhs, rexpr)

}  // namespace evocat

#endif  // EVOCAT_COMMON_RESULT_H_
