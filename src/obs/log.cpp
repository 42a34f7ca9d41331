#include "obs/log.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/jsonw.h"

namespace fsdep::obs {

namespace {

LogLevel levelFromEnv() {
  return parseLogLevel(std::getenv("FSDEP_LOG"), LogLevel::Warn);
}

bool jsonFromEnv() {
  const char* format = std::getenv("FSDEP_LOG_FORMAT");
  return format != nullptr && std::strcmp(format, "json") == 0;
}

std::atomic<bool> g_log_json{jsonFromEnv()};

unsigned long long wallMillis() {
  return static_cast<unsigned long long>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

namespace detail {
std::atomic<int> g_log_level{static_cast<int>(levelFromEnv())};
}  // namespace detail

const char* logLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::Debug:
      return "debug";
    case LogLevel::Info:
      return "info";
    case LogLevel::Warn:
      return "warn";
    case LogLevel::Error:
      return "error";
    case LogLevel::Off:
      return "off";
  }
  return "?";
}

LogLevel parseLogLevel(const char* text, LogLevel fallback) {
  if (text == nullptr) return fallback;
  for (const LogLevel level : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                               LogLevel::Error, LogLevel::Off}) {
    if (std::strcmp(text, logLevelName(level)) == 0) return level;
  }
  return fallback;
}

LogLevel logLevel() {
  return static_cast<LogLevel>(detail::g_log_level.load(std::memory_order_relaxed));
}

void setLogLevel(LogLevel level) {
  detail::g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::string formatLogLine(LogLevel level, const char* component, const char* message,
                          bool json, unsigned long long ts_ms) {
  std::string line;
  if (json) {
    JsonWriter w;
    w.beginObject();
    w.field("ts_ms", static_cast<std::uint64_t>(ts_ms));
    w.field("level", logLevelName(level));
    w.field("component", component);
    w.field("msg", message);
    w.endObject();
    line = w.take();
  } else {
    line = "fsdep[";
    line += logLevelName(level);
    line += "] ";
    line += component;
    line += ": ";
    line += message;
  }
  line += '\n';
  return line;
}

void logf(LogLevel level, const char* component, const char* fmt, ...) {
  if (!logEnabled(level)) return;
  char message[1024];
  std::va_list args;
  va_start(args, fmt);
  std::vsnprintf(message, sizeof(message), fmt, args);
  va_end(args);
  const std::string line = formatLogLine(level, component, message,
                                         g_log_json.load(std::memory_order_relaxed),
                                         wallMillis());
  // One fwrite per line keeps concurrent writers from interleaving.
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace fsdep::obs
