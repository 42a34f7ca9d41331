// Structured leveled logging — pillar 3 of the observability layer.
//
// One process-wide level, initialized from the FSDEP_LOG environment
// variable (debug|info|warn|error|off; default warn) and overridable by
// the CLI's --log flag. Output goes to stderr only — stdout stays
// reserved for machine-parseable command output (Table 5 text, depgraph
// JSON). FSDEP_LOG_FORMAT=json switches from the human one-liner
//   fsdep[info] cli: table5 done in 812.4 ms
// to JSON lines:
//   {"ts_ms":1234,"level":"info","component":"cli","msg":"..."}
//
// The level check is a relaxed atomic load; when a statement's level is
// filtered out, no formatting happens (the FSDEP_LOG* macros guard the
// call, so argument evaluation is skipped too).
#pragma once

#include <atomic>
#include <string>

namespace fsdep::obs {

namespace detail {
extern std::atomic<int> g_log_level;
}  // namespace detail

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

const char* logLevelName(LogLevel level);

/// Parses "debug|info|warn|error|off" (case-sensitive); falls back to
/// `fallback` for anything else, including null.
LogLevel parseLogLevel(const char* text, LogLevel fallback);

/// The active level (first call reads FSDEP_LOG / FSDEP_LOG_FORMAT).
LogLevel logLevel();
void setLogLevel(LogLevel level);

[[nodiscard]] inline bool logEnabled(LogLevel level) {
  return static_cast<int>(level) >= detail::g_log_level.load(std::memory_order_relaxed);
}

/// Formats one log line (without emitting). Exposed for tests.
std::string formatLogLine(LogLevel level, const char* component, const char* message,
                          bool json, unsigned long long ts_ms);

/// printf-style emission to stderr; call through the macros so disabled
/// levels cost one atomic load and nothing else.
void logf(LogLevel level, const char* component, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace fsdep::obs

#define FSDEP_LOG(level, component, ...)                                       \
  do {                                                                         \
    if (::fsdep::obs::logEnabled(level)) {                                     \
      ::fsdep::obs::logf(level, component, __VA_ARGS__);                       \
    }                                                                          \
  } while (0)

#define FSDEP_LOG_DEBUG(component, ...) \
  FSDEP_LOG(::fsdep::obs::LogLevel::Debug, component, __VA_ARGS__)
#define FSDEP_LOG_INFO(component, ...) \
  FSDEP_LOG(::fsdep::obs::LogLevel::Info, component, __VA_ARGS__)
#define FSDEP_LOG_WARN(component, ...) \
  FSDEP_LOG(::fsdep::obs::LogLevel::Warn, component, __VA_ARGS__)
#define FSDEP_LOG_ERROR(component, ...) \
  FSDEP_LOG(::fsdep::obs::LogLevel::Error, component, __VA_ARGS__)
