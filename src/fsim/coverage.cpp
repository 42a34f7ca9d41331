#include "fsim/coverage.h"

namespace fsdep::fsim {

CoverageRegistry& CoverageRegistry::instance() {
  static CoverageRegistry registry;
  return registry;
}

void CoverageRegistry::hit(std::string_view point) {
  const std::lock_guard<std::mutex> lock(mutex_);
  points_.insert(std::string(point));
}

void CoverageRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
}

std::set<std::string> CoverageRegistry::points() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return points_;
}

}  // namespace fsdep::fsim
