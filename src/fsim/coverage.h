// Coverage points: fsim code paths register the configuration-dependent
// branches they take. ConBugCk measures how deep a configuration drives
// the tools by counting distinct points (paper §4.2: "allow the enhanced
// tool to drive deeply into the target code area").
#pragma once

#include <mutex>
#include <set>
#include <string>
#include <string_view>

namespace fsdep::fsim {

/// Process-wide and thread-safe: campaign workers run the fsim tools
/// concurrently, and every tool reports its points here.
class CoverageRegistry {
 public:
  static CoverageRegistry& instance();

  void hit(std::string_view point);
  void reset();
  /// A copy of the distinct points hit since the last reset().
  [[nodiscard]] std::set<std::string> points() const;

 private:
  mutable std::mutex mutex_;
  std::set<std::string> points_;
};

/// Convenience wrapper used across fsim.
inline void coverPoint(std::string_view point) { CoverageRegistry::instance().hit(point); }

}  // namespace fsdep::fsim
