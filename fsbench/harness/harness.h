// fsbench harness core: timing, the percentile rule, the in-memory span
// tracer and the metric report every workload fills.
//
// Spans are recorded by the benchmark's own code around calls into the
// fsdep layers (the program's obs::Trace stays off). Each span has a
// name, start, end, parent and operation id; self time is the span's
// duration minus the part of it its children cover, so per-layer time
// is attributed without double counting nested calls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fsbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point from, Clock::time_point to);
double millisBetween(Clock::time_point from, Clock::time_point to);
double millisSince(Clock::time_point from);

// --- Percentiles ---------------------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of an unsorted sample; 0 for
/// an empty one.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
std::size_t samplesBeyond(std::size_t n, double p);

/// The tail rule: the highest percentile of the ladder {99.9, 99, 95, 90,
/// 50} that is not above `cap` and has at least 10 samples beyond it; 0
/// when even the median has fewer than 10 beyond.
double tailPercentile(std::size_t n, double cap);

struct Tail {
  double percentile = 0;  ///< the percentile reported (50 when none qualified)
  double value = 0;
  bool qualified = false;  ///< false: fewer than 10 samples beyond the median
};
Tail tailOf(const std::vector<double>& values, double cap);

/// splitmix64 step: a well-mixed 64-bit value from `state`, advancing it.
std::uint64_t splitmix64(std::uint64_t& state);

/// A uniform sample of at most `capacity` values of a stream (Vitter's
/// algorithm R, seeded). The storage is allocated and written when the
/// reservoir is made, so recording adds no memory however long the
/// stream grows.
template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed, const T& fill)
      : slots_(capacity, fill), state_(seed) {}

  void add(const T& value) {
    if (seen_ < slots_.size()) {
      slots_[seen_] = value;
    } else if (const std::uint64_t j = splitmix64(state_) % (seen_ + 1); j < slots_.size()) {
      slots_[j] = value;
    }
    ++seen_;
  }

  /// Values offered so far.
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  /// The values kept: all of them until the reservoir fills.
  [[nodiscard]] std::vector<T> kept() const {
    const std::size_t n = seen_ < slots_.size() ? static_cast<std::size_t>(seen_) : slots_.size();
    return std::vector<T>(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(n));
  }
  [[nodiscard]] std::size_t bytes() const { return slots_.size() * sizeof(T); }

 private:
  std::vector<T> slots_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
};

// --- Tracing ---------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;  ///< since the tracer was enabled
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the parent span, -1 for roots
  std::uint64_t op = 0;      ///< operation the span belongs to
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  static Tracer& global();

  void setEnabled(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Spans kept per run; later ones are counted as dropped.
  static constexpr std::size_t kMaxSpans = 400000;

  /// Opens a span; returns its index, or -1 while disabled (or full).
  std::int64_t begin(const std::string& name, std::uint64_t op, std::int64_t parent);
  void end(std::int64_t id);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Sum of self time (ms) per span name, over spans of every operation.
  [[nodiscard]] std::map<std::string, double> selfMillisByName() const;
  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durationsOf(const std::string& name) const;

  /// One JSON object per line: name, start_us, end_us, parent, op, thread.
  bool writeJsonLines(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  Clock::time_point epoch_ = Clock::now();  ///< reset by setEnabled(true)
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t dropped_ = 0;
};

/// Scoped span. The parent defaults to the innermost open span of this
/// thread; pass one explicitly for work handed to other threads.
class Span {
 public:
  static constexpr std::int64_t kInheritParent = -2;

  explicit Span(const char* name, std::uint64_t op = 0, std::int64_t parent = kInheritParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t id_ = -1;
};

/// A span that also adds its own wall time to `total_ms`, so a sub-pass
/// can report layer times even when the tracer is off or full.
class TimedSpan {
 public:
  TimedSpan(const char* name, double& total_ms) : span_(name), total_ms_(total_ms) {}
  ~TimedSpan() { total_ms_ += millisSince(start_); }
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

 private:
  Span span_;
  double& total_ms_;
  Clock::time_point start_ = Clock::now();
};

// --- Results ---------------------------------------------------------------

/// Named metrics of one run. add() also prints a human-readable line
/// (name, value, unit, sample count, note) to stdout as it goes.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = "");
  /// Prints a "name = text" fact line (counts, shares, checks).
  static void fact(const std::string& name, const std::string& text);

  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string resultLine(bool correct, std::uint64_t attempted,
                                       std::uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Host CPU time stolen from this VM so far (all CPUs, seconds), from
/// the steal column of /proc/stat; 0 where the kernel does not report it.
double stolenCpuSeconds();

/// CPU time of every thread of this process so far (user + system,
/// seconds). Time the host steals from the VM is not counted where the
/// kernel accounts steal time.
double processCpuSeconds();

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();
/// Current resident set size of this process, in MiB (0 where
/// /proc/self/statm is unreadable).
double residentMb();

/// Renders a double with every significant digit (round-trip exact).
std::string formatNumber(double value);

/// 64-bit FNV-1a of a byte string (output digests).
std::uint64_t fnv1a(const std::string& bytes);
std::string hex64(std::uint64_t value);

}  // namespace fsbench
