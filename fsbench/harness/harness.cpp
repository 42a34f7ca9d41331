#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace fsbench {

double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double millisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double millisSince(Clock::time_point from) { return millisBetween(from, Clock::now()); }

// --- Percentiles ---------------------------------------------------------

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearestRank(std::size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const std::size_t rank = nearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(const std::vector<double>& values) { return percentile(values, 50); }

std::size_t samplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearestRank(n, p);
}

double tailPercentile(std::size_t n, double cap) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (p <= cap && samplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

Tail tailOf(const std::vector<double>& values, double cap) {
  Tail tail;
  tail.percentile = tailPercentile(values.size(), cap);
  tail.qualified = tail.percentile > 0;
  if (!tail.qualified) tail.percentile = 50;
  tail.value = percentile(values, tail.percentile);
  return tail;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- Tracing ---------------------------------------------------------------

namespace {

thread_local std::vector<std::int64_t> open_spans;

std::uint32_t threadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::setEnabled(bool enabled) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (enabled && !enabled_.load(std::memory_order_relaxed)) epoch_ = Clock::now();
  enabled_.store(enabled, std::memory_order_relaxed);
}

std::int64_t Tracer::begin(const std::string& name, std::uint64_t op, std::int64_t parent) {
  if (!enabled()) return -1;
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  SpanRecord span;
  span.name = name;
  span.start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count());
  span.end_ns = span.start_ns;
  span.parent = parent;
  span.op = op;
  span.thread = threadIndex();
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<std::size_t>(id) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(id)].end_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_).count());
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::map<std::string, double> Tracer::selfMillisByName() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) children[static_cast<std::size_t>(all[i].parent)].push_back(i);
  }
  std::map<std::string, double> self_ms;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& span = all[i];
    // Children may run on several threads at once: subtract the union of
    // their intervals (clipped to the parent), not their sum.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    for (const std::size_t c : children[i]) {
      const std::uint64_t from = std::max(all[c].start_ns, span.start_ns);
      const std::uint64_t to = std::min(all[c].end_ns, span.end_ns);
      if (to > from) intervals.emplace_back(from, to);
    }
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = span.start_ns;
    for (const auto& [from, to] : intervals) {
      const std::uint64_t begin = std::max(from, reach);
      if (to > begin) covered += to - begin;
      reach = std::max(reach, to);
    }
    const std::uint64_t duration = span.end_ns - span.start_ns;
    self_ms[span.name] += static_cast<double>(duration - std::min(covered, duration)) / 1e6;
  }
  return self_ms;
}

std::vector<double> Tracer::durationsOf(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans()) {
    if (span.name == name) out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
  }
  return out;
}

bool Tracer::writeJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& span : spans()) {
    out << "{\"name\":\"" << span.name << "\",\"start_us\":" << span.start_ns / 1000
        << ",\"end_us\":" << span.end_ns / 1000 << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << ",\"thread\":" << span.thread << "}\n";
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name, std::uint64_t op, std::int64_t parent) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  if (parent == kInheritParent) parent = open_spans.empty() ? -1 : open_spans.back();
  id_ = tracer.begin(name, op, parent);
  if (id_ >= 0) open_spans.push_back(id_);
}

Span::~Span() {
  if (id_ < 0) return;
  Tracer::global().end(id_);
  if (!open_spans.empty() && open_spans.back() == id_) open_spans.pop_back();
}

// --- Results ---------------------------------------------------------------

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples, const std::string& note) {
  entries_.push_back(Entry{name, value, unit});
  std::printf("  %-34s %14s %-6s n=%-8zu %s\n", name.c_str(), formatNumber(value).c_str(),
              unit.c_str(), samples, note.c_str());
}

void Report::fact(const std::string& name, const std::string& text) {
  std::printf("  %-34s %s\n", name.c_str(), text.c_str());
}

std::string Report::resultLine(bool correct, std::uint64_t attempted,
                               std::uint64_t failed) const {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + entries_[i].name + "\": {\"value\": " + formatNumber(entries_[i].value) +
            ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  line += "}}";
  return line;
}

double stolenCpuSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  unsigned long long fields[8] = {};
  stat >> cpu;
  for (unsigned long long& f : fields) stat >> f;
  if (!stat || cpu != "cpu") return 0;
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<double>(fields[7]) / static_cast<double>(ticks) : 0;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double residentMb() {
  std::ifstream statm("/proc/self/statm");
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  const long page = sysconf(_SC_PAGESIZE);
  if (!statm || page <= 0) return 0;
  return static_cast<double>(resident_pages) * static_cast<double>(page) / (1024.0 * 1024.0);
}

std::string formatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace fsbench
