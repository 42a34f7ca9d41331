// Structured per-run reports (`--report out.json`): one JSON document
// per CLI invocation recording the version, command line, worker count,
// wall time, the full metrics registry snapshot, and any command-
// specific facts (extracted-dependency counts, the CrashCk outcome
// histogram, ...). Benchmark and CI runs diff these files instead of
// scraping stdout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fsdep::obs {

/// Reported by every run; bump on incompatible report-schema changes.
inline constexpr const char* kFsdepVersion = "0.3.0";
inline constexpr int kReportSchemaVersion = 1;

class RunReport {
 public:
  static RunReport& global();

  void setCommand(std::string command, std::vector<std::string> args);
  void setJobs(std::uint64_t jobs);
  void setWallMillis(double wall_ms);
  void setExitCode(int code);

  /// Flat command-specific extras, rendered under "facts" in insertion
  /// order. Duplicate keys overwrite.
  void note(const std::string& key, std::uint64_t value);
  void note(const std::string& key, const std::string& value);

  /// Renders the report, embedding the global metrics registry.
  [[nodiscard]] std::string renderJson() const;
  bool writeFile(const std::string& path) const;

  /// Drops command/extras state (tests; the CLI builds one per process).
  void clear();

 private:
  struct Fact {
    std::string key;
    bool is_string = false;
    std::uint64_t number = 0;
    std::string text;
  };

  std::string command_;
  std::vector<std::string> args_;
  std::uint64_t jobs_ = 0;
  double wall_ms_ = 0;
  int exit_code_ = 0;
  std::vector<Fact> facts_;
};

}  // namespace fsdep::obs
