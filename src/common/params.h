/// \file params.h
/// \brief String-keyed parameter maps for name-based factories.
///
/// The method and measure registries construct implementations from
/// `ParamMap`s — flat string->string maps decoded from a JobSpec's JSON
/// parameter objects. `ParamReader` is the validating accessor every factory
/// uses: typed getters record which keys were consumed, and `Finish()` turns
/// the first type error or any unconsumed (unknown) key into a Status that
/// names the offending field as `<context>.<key>`.

#ifndef EVOCAT_COMMON_PARAMS_H_
#define EVOCAT_COMMON_PARAMS_H_

#include <climits>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "common/status.h"

namespace evocat {

/// \brief Flat parameter map; values are decimal numbers or enum tokens.
using ParamMap = std::map<std::string, std::string>;

/// \brief Validating typed reader over one ParamMap.
///
/// ```
/// ParamReader reader("pram", params);
/// double retain = reader.GetDouble("retain", 0.8);
/// int k = reader.GetInt("k", 3);  // rejects values outside int
/// EVOCAT_RETURN_NOT_OK(reader.Finish());  // unknown keys, parse errors
/// ```
class ParamReader {
 public:
  ParamReader(std::string context, const ParamMap& params)
      : context_(std::move(context)), params_(&params) {}

  /// Typed getters; a missing key yields the default, a malformed value is
  /// recorded and surfaced by Finish(). `GetInt` also records a value
  /// outside [min, max] (by default, outside `int`) as
  /// "<context>.<key>: must be in [min, max], got <value>".
  int GetInt(const std::string& key, int default_value, int min = INT_MIN,
             int max = INT_MAX);
  double GetDouble(const std::string& key, double default_value);
  std::string GetString(const std::string& key, std::string default_value);

  /// \brief True when `key` is present in the map.
  bool Has(const std::string& key) const { return params_->count(key) > 0; }

  /// \brief First recorded error, or Invalid naming any unconsumed key.
  Status Finish() const;

 private:
  void RecordError(const std::string& key, const std::string& detail);

  std::string context_;
  const ParamMap* params_;
  std::set<std::string> consumed_;
  Status status_;  // first error wins
};

/// \brief Parses a full decimal integer ("42", "-3"); no trailing junk.
Status ParseInt64(const std::string& text, int64_t* out);
/// \brief Parses a full floating-point literal; no trailing junk.
Status ParseDouble(const std::string& text, double* out);
/// \brief Formats `value` with the shortest representation that re-parses to
/// the identical double (stable across dump/parse round trips).
std::string FormatDouble(double value);

}  // namespace evocat

#endif  // EVOCAT_COMMON_PARAMS_H_
