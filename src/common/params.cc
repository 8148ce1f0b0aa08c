#include "common/params.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace evocat {

Status ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return Status::Invalid("empty integer literal");
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE) return Status::Invalid("integer out of range: ", text);
  if (end == text.c_str() || *end != '\0') {
    return Status::Invalid("not an integer: '", text, "'");
  }
  *out = static_cast<int64_t>(value);
  return Status::OK();
}

Status ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return Status::Invalid("empty number literal");
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::Invalid("not a number: '", text, "'");
  }
  // Rejects overflow (ERANGE -> ±inf) and the "inf"/"nan" literals strtod
  // accepts — non-finite values have no JSON representation and would break
  // spec round-trips. Underflow to (sub)normal zero is fine.
  if (!std::isfinite(value)) {
    return Status::Invalid("number out of range: '", text, "'");
  }
  *out = value;
  return Status::OK();
}

std::string FormatDouble(double value) {
  char buffer[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

void ParamReader::RecordError(const std::string& key,
                              const std::string& detail) {
  if (status_.ok()) {
    status_ = Status::Invalid(context_, ".", key, ": ", detail);
  }
}

int ParamReader::GetInt(const std::string& key, int default_value, int min,
                        int max) {
  consumed_.insert(key);
  auto it = params_->find(key);
  if (it == params_->end()) return default_value;
  int64_t value = default_value;
  Status status = ParseInt64(it->second, &value);
  if (!status.ok()) {
    RecordError(key, status.message());
    return default_value;
  }
  if (value < min || value > max) {
    RecordError(key, "must be in [" + std::to_string(min) + ", " +
                         std::to_string(max) + "], got " +
                         std::to_string(value));
    return default_value;
  }
  return static_cast<int>(value);
}

double ParamReader::GetDouble(const std::string& key, double default_value) {
  consumed_.insert(key);
  auto it = params_->find(key);
  if (it == params_->end()) return default_value;
  double value = default_value;
  Status status = ParseDouble(it->second, &value);
  if (!status.ok()) RecordError(key, status.message());
  return value;
}

std::string ParamReader::GetString(const std::string& key,
                                   std::string default_value) {
  consumed_.insert(key);
  auto it = params_->find(key);
  return it == params_->end() ? default_value : it->second;
}

Status ParamReader::Finish() const {
  if (!status_.ok()) return status_;
  for (const auto& [key, value] : *params_) {
    (void)value;
    if (!consumed_.count(key)) {
      return Status::Invalid("unknown parameter '", context_, ".", key, "'");
    }
  }
  return Status::OK();
}

}  // namespace evocat
