// Coverage points: fsim code paths register the configuration-dependent
// branches they take. ConBugCk measures how deep a configuration drives
// the tools by counting distinct points (paper §4.2: "allow the enhanced
// tool to drive deeply into the target code area").
//
// A run that measures coverage installs a CoverageCollector on its thread
// for as long as the run lasts. coverPoint() records into the calling
// thread's collector and does nothing when none is installed. fsim does
// all of a tool's work on the caller's thread (nothing in fsim starts a
// thread or uses the pool), so a collector sees exactly its own run's
// points, and runs on other threads, such as campaign workers, write
// nothing.
#pragma once

#include <set>
#include <string>
#include <string_view>

namespace fsdep::fsim {

/// The calling thread's collector from construction to destruction; the
/// one installed before it is restored afterwards.
class CoverageCollector {
 public:
  CoverageCollector();
  ~CoverageCollector();
  CoverageCollector(const CoverageCollector&) = delete;
  CoverageCollector& operator=(const CoverageCollector&) = delete;

  /// The distinct points hit on this thread while installed.
  [[nodiscard]] const std::set<std::string>& points() const { return points_; }

 private:
  friend void coverPoint(std::string_view point);

  CoverageCollector* previous_;
  std::set<std::string> points_;
};

/// Records `point` in the calling thread's collector, if one is installed.
void coverPoint(std::string_view point);

}  // namespace fsdep::fsim
