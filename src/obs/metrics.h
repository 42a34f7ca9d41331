// Metrics registry — pillar 2 of the observability layer (fsdep-obs).
//
// Named counters, gauges and histograms with labeled dimensions
// (scenario, component, job count, ...). All hot-path mutation is a
// relaxed atomic op on a handle obtained once; the name+labels lookup
// happens only at handle-acquisition time, so call sites cache a
// reference (function-local static or member). Handles stay valid for
// the process lifetime — instruments are never destroyed, only zeroed.
//
// The registry is the only place a count lives: `--stats`, `serve
// stats`, the report facts and the cache accessors all read it, and
// `--metrics out.json` dumps it as JSON. A name is either one unlabeled
// counter or a labeled family, never both, so counterSum(name) is its
// total. Reset is per-prefix so concurrent subsystems do not clobber
// each other's series.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fsdep::obs {

/// Label dimensions, e.g. {{"scenario","s1"},{"component","mke2fs"}}.
/// Order-insensitive: the registry canonicalizes by sorting on key.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Relaxed atomics: totals are exact once the
/// producing threads have joined (the pipeline always waits before a
/// snapshot is taken), and torn reads are impossible by construction.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins gauge (e.g. the worker count of the most recent run).
class Gauge {
 public:
  void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bound histogram. `bounds` are inclusive upper bucket edges in
/// ascending order; one implicit overflow bucket catches the rest.
/// observe() is a short linear scan (bounds are small) plus two relaxed
/// adds — no locks, no allocation.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v);

  [[nodiscard]] std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Number of buckets including the overflow bucket.
  [[nodiscard]] std::size_t bucketCount() const { return counts_.size(); }
  /// Observations in bucket `i` (not cumulative).
  [[nodiscard]] std::uint64_t bucketValue(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const { return bounds_; }

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside
  /// the bucket holding the target rank. Edge semantics: an empty
  /// histogram returns 0; when the rank lands in the overflow bucket
  /// the upper edge is unknown, so the estimate is max(largest finite
  /// bound, mean); a histogram with no finite bounds returns the mean.
  [[nodiscard]] double quantile(double q) const;

  void reset();

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Instrument registry. Registry::global() is the process-wide instance
/// every subsystem records into; tests may build private registries.
class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  /// Returns the instrument registered under (name, labels), creating
  /// it on first use. References stay valid forever.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  /// `bounds` only matters on the creating call; later calls with the
  /// same identity return the existing histogram unchanged.
  Histogram& histogram(std::string_view name, const Labels& labels = {},
                       std::vector<std::uint64_t> bounds = {});

  /// Sum of every counter whose name matches exactly, across all label
  /// sets (how --stats aggregates the per-component series).
  [[nodiscard]] std::uint64_t counterSum(std::string_view name) const;

  /// Value of one exact (name, labels) counter; 0 when absent.
  [[nodiscard]] std::uint64_t counterValue(std::string_view name,
                                           const Labels& labels = {}) const;
  [[nodiscard]] std::uint64_t gaugeValue(std::string_view name,
                                         const Labels& labels = {}) const;

  /// Zeroes every instrument whose name starts with `prefix` ("" = all).
  /// Instruments stay registered; outstanding handles keep working.
  void reset(std::string_view prefix = {});

  /// Renders the full registry as a JSON document:
  /// {"counters":[{"name":..,"labels":{..},"value":..},..],
  ///  "gauges":[..], "histograms":[..]}
  [[nodiscard]] std::string renderJson() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fsdep::obs
