#include "obs/metrics.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>

#include "obs/jsonw.h"

namespace fsdep::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void Histogram::observe(std::uint64_t v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double mean = static_cast<double>(sum()) / static_cast<double>(n);
  // Nearest-rank target in [1, n].
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1)) + 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t in_bucket = counts_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds_.size()) {
      // Overflow bucket: no upper edge to interpolate against.
      const double last_bound =
          bounds_.empty() ? 0.0 : static_cast<double>(bounds_.back());
      return std::max(last_bound, mean);
    }
    const double upper = static_cast<double>(bounds_[i]);
    const double lower = i == 0 ? 0.0 : static_cast<double>(bounds_[i - 1]);
    const double within =
        static_cast<double>(rank - cumulative) / static_cast<double>(in_bucket);
    return lower + (upper - lower) * within;
  }
  return mean;  // unreachable when counts are consistent
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

enum Kind { kCounter, kGauge, kHistogram };

/// Canonical map key: "name" + '\0' + sorted "k=v" pairs. '\0' cannot
/// appear in a metric name, so keys never collide across dimensions.
std::string makeKey(std::string_view name, const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key(name);
  for (const auto& [k, v] : sorted) {
    key += '\0';
    key += k;
    key += '\0';
    key += v;
  }
  return key;
}

}  // namespace

struct Registry::Impl {
  struct Entry {
    std::string name;
    Labels labels;  ///< sorted
    int kind = kCounter;
    // Exactly one of these is set, per kind. unique_ptr keeps addresses
    // stable while the map rehashes/rebalances.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Guards the map's shape only: instruments are atomics, so finding,
  /// reading and zeroing them needs the shared side, and only inserting
  /// a new series takes the exclusive side. Per-component lookups from
  /// every pool worker therefore no longer queue behind one another.
  mutable std::shared_mutex mu;
  std::map<std::string, Entry> entries;  ///< ordered => deterministic JSON

  Entry& lookup(std::string_view name, const Labels& labels, int kind,
                std::vector<std::uint64_t> bounds) {
    const std::string key = makeKey(name, labels);
    {
      const std::shared_lock<std::shared_mutex> lock(mu);
      const auto it = entries.find(key);
      if (it != entries.end()) return it->second;
    }
    const std::lock_guard<std::shared_mutex> lock(mu);
    auto it = entries.find(key);  // another thread may have inserted it meanwhile
    if (it == entries.end()) {
      Entry entry;
      entry.name = std::string(name);
      entry.labels = labels;
      std::sort(entry.labels.begin(), entry.labels.end());
      entry.kind = kind;
      switch (kind) {
        case kCounter:
          entry.counter = std::make_unique<Counter>();
          break;
        case kGauge:
          entry.gauge = std::make_unique<Gauge>();
          break;
        case kHistogram:
          entry.histogram = std::make_unique<Histogram>(std::move(bounds));
          break;
      }
      it = entries.emplace(key, std::move(entry)).first;
    }
    return it->second;
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry* registry = new Registry();  // never destroyed: handles outlive exit
  return *registry;
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  return *impl_->lookup(name, labels, kCounter, {}).counter;
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  return *impl_->lookup(name, labels, kGauge, {}).gauge;
}

Histogram& Registry::histogram(std::string_view name, const Labels& labels,
                               std::vector<std::uint64_t> bounds) {
  return *impl_->lookup(name, labels, kHistogram, std::move(bounds)).histogram;
}

std::uint64_t Registry::counterSum(std::string_view name) const {
  std::uint64_t total = 0;
  const std::shared_lock<std::shared_mutex> lock(impl_->mu);
  for (const auto& [key, entry] : impl_->entries) {
    if (entry.kind == kCounter && entry.name == name) total += entry.counter->value();
  }
  return total;
}

std::uint64_t Registry::counterValue(std::string_view name, const Labels& labels) const {
  const std::string key = makeKey(name, labels);
  const std::shared_lock<std::shared_mutex> lock(impl_->mu);
  const auto it = impl_->entries.find(key);
  if (it == impl_->entries.end() || it->second.kind != kCounter) return 0;
  return it->second.counter->value();
}

std::uint64_t Registry::gaugeValue(std::string_view name, const Labels& labels) const {
  const std::string key = makeKey(name, labels);
  const std::shared_lock<std::shared_mutex> lock(impl_->mu);
  const auto it = impl_->entries.find(key);
  if (it == impl_->entries.end() || it->second.kind != kGauge) return 0;
  return it->second.gauge->value();
}

void Registry::reset(std::string_view prefix) {
  const std::shared_lock<std::shared_mutex> lock(impl_->mu);
  for (auto& [key, entry] : impl_->entries) {
    if (entry.name.compare(0, prefix.size(), prefix) != 0) continue;
    switch (entry.kind) {
      case kCounter:
        entry.counter->reset();
        break;
      case kGauge:
        entry.gauge->reset();
        break;
      case kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

namespace {

void writeLabels(JsonWriter& w, const Labels& labels) {
  w.key("labels");
  w.beginObject();
  for (const auto& [k, v] : labels) w.field(k, std::string_view(v));
  w.endObject();
}

}  // namespace

std::string Registry::renderJson() const {
  const std::shared_lock<std::shared_mutex> lock(impl_->mu);
  JsonWriter w;
  w.beginObject();

  w.key("counters");
  w.beginArray();
  for (const auto& [key, entry] : impl_->entries) {
    if (entry.kind != kCounter) continue;
    w.beginObject();
    w.field("name", std::string_view(entry.name));
    writeLabels(w, entry.labels);
    w.field("value", entry.counter->value());
    w.endObject();
  }
  w.endArray();

  w.key("gauges");
  w.beginArray();
  for (const auto& [key, entry] : impl_->entries) {
    if (entry.kind != kGauge) continue;
    w.beginObject();
    w.field("name", std::string_view(entry.name));
    writeLabels(w, entry.labels);
    w.field("value", entry.gauge->value());
    w.endObject();
  }
  w.endArray();

  w.key("histograms");
  w.beginArray();
  for (const auto& [key, entry] : impl_->entries) {
    if (entry.kind != kHistogram) continue;
    const Histogram& h = *entry.histogram;
    w.beginObject();
    w.field("name", std::string_view(entry.name));
    writeLabels(w, entry.labels);
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("p50", h.quantile(0.50));
    w.field("p95", h.quantile(0.95));
    w.field("p99", h.quantile(0.99));
    w.key("bounds");
    w.beginArray();
    for (const std::uint64_t b : h.bounds()) w.value(b);
    w.endArray();
    w.key("buckets");
    w.beginArray();
    for (std::size_t i = 0; i < h.bucketCount(); ++i) w.value(h.bucketValue(i));
    w.endArray();
    w.endObject();
  }
  w.endArray();

  w.endObject();
  std::string text = w.take();
  text += '\n';
  return text;
}

}  // namespace fsdep::obs
