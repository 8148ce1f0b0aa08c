/// \file logging.h
/// \brief Leveled stderr logging with a process-wide threshold.
///
/// Usage: `EVOCAT_LOG(INFO) << "generation " << g << " best=" << best;`
/// Experiments default to WARNING to keep bench output machine-readable.
///
/// Two output formats share one sink (stderr): the human `[LEVEL file:line]`
/// text default, and a structured mode (`SetLogFormat(LogFormat::kJson)`,
/// evocatd `--log-json`) emitting one JSON object per line with `ts`,
/// `level`, `component`, `msg`, and `job_id` when a `ScopedLogJobId` is
/// active on the logging thread.

#ifndef EVOCAT_COMMON_LOGGING_H_
#define EVOCAT_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace evocat {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// \brief Sets the minimum level that is emitted (default: kInfo).
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

enum class LogFormat { kText = 0, kJson = 1 };

/// \brief Selects text (default) or one-JSON-object-per-line output.
void SetLogFormat(LogFormat format);
LogFormat GetLogFormat();

/// \brief Tags every log line from the current thread with a job id for the
/// scope's lifetime (evocatd wraps each job execution in one). Nests: the
/// previous id is restored on destruction.
class ScopedLogJobId {
 public:
  explicit ScopedLogJobId(std::string job_id);
  ~ScopedLogJobId();

  ScopedLogJobId(const ScopedLogJobId&) = delete;
  ScopedLogJobId& operator=(const ScopedLogJobId&) = delete;

 private:
  std::string previous_;
};

namespace internal {

/// \brief Accumulates one log line and flushes it on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace evocat

#define EVOCAT_LOG_DEBUG ::evocat::LogLevel::kDebug
#define EVOCAT_LOG_INFO ::evocat::LogLevel::kInfo
#define EVOCAT_LOG_WARNING ::evocat::LogLevel::kWarning
#define EVOCAT_LOG_ERROR ::evocat::LogLevel::kError

#define EVOCAT_LOG(severity) \
  ::evocat::internal::LogMessage(EVOCAT_LOG_##severity, __FILE__, __LINE__)

#endif  // EVOCAT_COMMON_LOGGING_H_
