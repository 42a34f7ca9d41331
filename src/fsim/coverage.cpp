#include "fsim/coverage.h"

namespace fsdep::fsim {

namespace {

thread_local CoverageCollector* t_collector = nullptr;

}  // namespace

CoverageCollector::CoverageCollector() : previous_(t_collector) { t_collector = this; }

CoverageCollector::~CoverageCollector() { t_collector = previous_; }

void coverPoint(std::string_view point) {
  if (t_collector != nullptr) t_collector->points_.emplace(point);
}

}  // namespace fsdep::fsim
