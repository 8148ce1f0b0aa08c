#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>
#include <utility>

namespace evocat {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::atomic<LogFormat> g_format{LogFormat::kText};

thread_local std::string t_job_id;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

/// RFC 3339 UTC with millisecond precision, e.g. "2026-08-09T14:03:22.174Z".
std::string IsoTimestamp() {
  auto now = std::chrono::system_clock::now();
  std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                    now.time_since_epoch())
                    .count() %
                1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  // Worst case: seven fields of 11 characters (any int) plus 7 separators
  // and the terminator, 85 bytes.
  char buf[88];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(millis));
  return buf;
}

void AppendJsonEscaped(std::string* out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (c == '\n') {
      *out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level); }
LogLevel GetLogLevel() { return g_level.load(); }

void SetLogFormat(LogFormat format) { g_format.store(format); }
LogFormat GetLogFormat() { return g_format.load(); }

ScopedLogJobId::ScopedLogJobId(std::string job_id)
    : previous_(std::move(t_job_id)) {
  t_job_id = std::move(job_id);
}

ScopedLogJobId::~ScopedLogJobId() { t_job_id = std::move(previous_); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (level_ < GetLogLevel()) return;
  if (GetLogFormat() == LogFormat::kJson) {
    std::string line = "{\"ts\":\"" + IsoTimestamp() + "\",\"level\":\"";
    line += LevelName(level_);
    line += "\",\"component\":\"";
    line += Basename(file_);
    line += ":" + std::to_string(line_);
    line += "\",\"msg\":\"";
    AppendJsonEscaped(&line, stream_.str());
    line += "\"";
    if (!t_job_id.empty()) {
      line += ",\"job_id\":\"";
      AppendJsonEscaped(&line, t_job_id);
      line += "\"";
    }
    line += "}";
    std::cerr << line << std::endl;
    return;
  }
  std::ostringstream prefix;
  prefix << "[" << LevelName(level_) << " " << Basename(file_) << ":" << line_
         << "] ";
  if (!t_job_id.empty()) prefix << "(job " << t_job_id << ") ";
  std::cerr << prefix.str() << stream_.str() << std::endl;
}

}  // namespace internal
}  // namespace evocat
