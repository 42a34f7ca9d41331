#include "corpus/disk_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "extract/extractor.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "taint/analyzer.h"

namespace fsdep::corpus {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::uint64_t h, const unsigned char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1aU64(std::uint64_t h, std::uint64_t v) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
  return fnv1a(h, bytes, sizeof(bytes));
}

// Entry layout: a fixed-form header line, then the raw payload bytes.
// The header carries everything needed to reject a stale or torn file
// without trusting its content: the schema version, the full key, and
// the exact payload size.
constexpr const char* kMagic = "fsdep-cache";

}  // namespace

CacheKey& CacheKey::mix(std::string_view bytes) {
  mix(static_cast<std::uint64_t>(bytes.size()));
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  lo_ = fnv1a(lo_, data, bytes.size());
  hi_ = fnv1a(hi_, data, bytes.size());
  return *this;
}

CacheKey& CacheKey::mix(std::uint64_t v) {
  lo_ = fnv1aU64(lo_, v);
  hi_ = fnv1aU64(hi_, v);
  return *this;
}

std::string CacheKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx", static_cast<unsigned long long>(hi_),
                static_cast<unsigned long long>(lo_));
  return buf;
}

std::uint64_t contentDigest(std::string_view text) {
  return fnv1a(0xcbf29ce484222325ull, reinterpret_cast<const unsigned char*>(text.data()),
               text.size());
}

void mixOptions(CacheKey& key, const taint::AnalysisOptions& options) {
  key.mix("taint-options");
  key.mix(options.inter_procedural);
  key.mix(options.field_bridging);
}

void mixOptions(CacheKey& key, const extract::ExtractOptions& options) {
  key.mix("extract-options");
  key.mix(options.metadata_owner);
  key.mix(static_cast<std::uint64_t>(options.parser_types.size()));
  for (const auto& [fn, type] : options.parser_types) {
    key.mix(fn);
    key.mix(type);
  }
  key.mix(static_cast<std::uint64_t>(options.error_functions.size()));
  for (const std::string& fn : options.error_functions) key.mix(fn);
}

void DiskCache::configure(DiskCacheConfig config) {
  const std::lock_guard<std::mutex> lock(mu_);
  config_ = std::move(config);
}

bool DiskCache::enabled() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return !config_.dir.empty();
}

std::string DiskCache::dir() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return config_.dir;
}

std::string DiskCache::schemaDir() const {
  return config_.dir + "/v" + std::to_string(config_.schema_version);
}

std::string DiskCache::entryPath(const CacheKey& key) const {
  return schemaDir() + "/" + key.hex() + ".entry";
}

std::optional<std::string> DiskCache::load(const CacheKey& key,
                                           const std::function<bool(std::string_view)>& accept) {
  static obs::Counter& hit_counter = obs::Registry::global().counter("cache.disk.hits");
  static obs::Counter& miss_counter = obs::Registry::global().counter("cache.disk.misses");

  const auto miss = [&]() -> std::optional<std::string> {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter.add();
    return std::nullopt;
  };

  std::string path;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (config_.dir.empty()) return miss();
    path = entryPath(key);
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) return miss();

  // Header: "fsdep-cache v<schema> <keyhex> <payload-bytes>\n". Any
  // deviation — wrong magic, other schema, foreign key (a hash-prefix
  // rename), bad size — classifies the file as not-our-entry: a miss.
  std::string magic;
  std::string version;
  std::string key_hex;
  std::uint64_t payload_size = 0;
  in >> magic >> version >> key_hex >> payload_size;
  int schema_version = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    schema_version = config_.schema_version;
  }
  if (!in || magic != kMagic || version != "v" + std::to_string(schema_version) ||
      key_hex != key.hex()) {
    return miss();
  }
  if (in.get() != '\n') return miss();

  std::string payload(payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  // A truncated file (torn write, disk-full leftover) reads short;
  // trailing garbage means the size field lied. Both are misses.
  if (static_cast<std::uint64_t>(in.gcount()) != payload_size || in.get() != EOF) {
    return miss();
  }
  if (accept && !accept(payload)) return miss();

  hits_.fetch_add(1, std::memory_order_relaxed);
  hit_counter.add();
  // Refresh the LRU position; failure is harmless (entry just ages).
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return payload;
}

void DiskCache::store(const CacheKey& key, std::string_view payload) {
  static obs::Counter& store_counter = obs::Registry::global().counter("cache.disk.stores");

  const std::lock_guard<std::mutex> lock(mu_);
  if (config_.dir.empty()) return;

  std::error_code ec;
  fs::create_directories(schemaDir(), ec);
  if (ec) {
    FSDEP_LOG_WARN("cache", "disk cache: cannot create %s: %s", schemaDir().c_str(),
                   ec.message().c_str());
    return;
  }

  // Atomic publish: write the full entry to a temp name, then rename.
  // Readers either see the complete entry or none; a crash mid-write
  // leaves a .tmp file no load() ever looks at.
  const std::string path = entryPath(key);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    out << kMagic << " v" << config_.schema_version << " " << key.hex() << " "
        << payload.size() << "\n";
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out) {
      out.close();
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  store_counter.add();
  evictOverflow();
}

void DiskCache::evictOverflow() {
  static obs::Counter& evict_counter =
      obs::Registry::global().counter("cache.disk.evictions");

  std::error_code ec;
  std::vector<std::pair<fs::file_time_type, fs::path>> entries;
  for (const fs::directory_entry& entry : fs::directory_iterator(schemaDir(), ec)) {
    if (entry.path().extension() != ".entry") continue;
    entries.emplace_back(entry.last_write_time(ec), entry.path());
  }
  if (ec || entries.size() <= config_.max_entries) return;
  // Oldest mtime first = least recently used (hits refresh mtime).
  std::sort(entries.begin(), entries.end());
  const std::size_t excess = entries.size() - config_.max_entries;
  for (std::size_t i = 0; i < excess; ++i) {
    if (fs::remove(entries[i].second, ec)) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      evict_counter.add();
    }
  }
}

void DiskCache::invalidateAll() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (config_.dir.empty()) return;
  std::error_code ec;
  fs::remove_all(schemaDir(), ec);
}

std::size_t DiskCache::entryCount() const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (config_.dir.empty()) return 0;
  std::error_code ec;
  std::size_t n = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(schemaDir(), ec)) {
    if (entry.path().extension() == ".entry") ++n;
  }
  return n;
}

DiskCache& DiskCache::global() {
  static DiskCache cache;
  return cache;
}

}  // namespace fsdep::corpus
