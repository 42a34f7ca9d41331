// On-disk incremental cache (ROADMAP item 1). The in-memory
// ComponentCache dies with the process, so every CLI invocation paid the
// full re-parse + re-analysis cost from scratch — PR 6's profile
// attributes 35% of the amplified-corpus run to re-parse alone. This
// cache persists pipeline results across processes: entries are
// content-hashed by (component source digests x AnalysisOptions
// fingerprint x ExtractOptions fingerprint x cache-schema version), so a
// cold start skips parse, sema, taint and extraction for every request
// whose inputs are unchanged, and any source or option change falls back
// to a full recompute without ever serving stale data.
//
// Robustness contract: a missing, truncated, corrupt or
// schema-mismatched entry is a MISS, never an error — the cache can be
// deleted, torn mid-write, or populated by a different fsdep version at
// any time and the pipeline still produces correct (just slower)
// results. Stores are atomic (temp file + rename) and bounded: beyond
// `max_entries` the least-recently-used entries are evicted (hits
// refresh an entry's mtime).
//
// Traffic is counted only in the obs metrics registry, as the unlabeled
// cache.disk.{hits,misses,stores,evictions} counters; hits(), misses(),
// stores() and evictions() read them, so they count for every DiskCache
// of the process, and --metrics, --report and `serve stats` see the
// same numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace fsdep::taint {
struct AnalysisOptions;
}
namespace fsdep::extract {
struct ExtractOptions;
}

namespace fsdep::corpus {

/// Bump on any change to what a payload contains or how keys are built;
/// entries written under other schema versions are never read (they live
/// in a separate subdirectory and age out via LRU of their own tree).
/// v2: an executor choice (compiled Taint-IR or an AST walk) joined the
/// key fingerprint, so v1 trees no longer match any key.
/// v3: the inter-procedural engine choice (`summaries`) and its pass cap
/// (`max_global_passes`) left AnalysisOptions and the key fingerprint.
/// v4: the executor choice left them too; the Taint-IR is the only one.
/// v5: the trace cap and the extract-side bridging switch left the
/// options and the key; extraction follows AnalysisOptions::field_bridging.
inline constexpr int kDiskCacheSchemaVersion = 5;

/// Incremental 2x64-bit FNV-1a hasher for cache keys. Two independent
/// offset bases give a 128-bit identity — enough that distinct requests
/// colliding is not a practical concern. Length-prefixing every chunk
/// keeps concatenation unambiguous ("ab"+"c" != "a"+"bc").
class CacheKey {
 public:
  CacheKey& mix(std::string_view bytes);
  // String literals would otherwise decay to pointer and win the bool
  // overload (a standard conversion beats the string_view constructor).
  CacheKey& mix(const char* bytes) { return mix(std::string_view(bytes)); }
  CacheKey& mix(std::uint64_t v);
  CacheKey& mix(bool b) { return mix(static_cast<std::uint64_t>(b)); }
  CacheKey& mix(int v) { return mix(static_cast<std::uint64_t>(v)); }

  /// 32 lowercase hex chars; the entry's file name.
  [[nodiscard]] std::string hex() const;

  bool operator==(const CacheKey& other) const = default;

 private:
  std::uint64_t lo_ = 0xcbf29ce484222325ull;
  std::uint64_t hi_ = 0x6c62272e07bb0142ull;
};

/// One-shot FNV-1a digest of a component's source text.
std::uint64_t contentDigest(std::string_view text);

/// Folds every field of the analysis/extract options into the key, so an
/// --inter result can never be served to an --intra request (and vice
/// versa for bridging, parser tables, ...).
void mixOptions(CacheKey& key, const taint::AnalysisOptions& options);
void mixOptions(CacheKey& key, const extract::ExtractOptions& options);

struct DiskCacheConfig {
  /// Root directory; "" disables the cache. Entries live under
  /// <dir>/v<schema_version>/.
  std::string dir;
  /// LRU bound on the number of entries in the schema directory.
  std::size_t max_entries = 512;
  /// Tests override to exercise schema-bump invalidation.
  int schema_version = kDiskCacheSchemaVersion;
};

class DiskCache {
 public:
  DiskCache() = default;
  explicit DiskCache(DiskCacheConfig config) { configure(std::move(config)); }

  /// (Re)points the cache; "" disables it. Creates the schema directory
  /// lazily on first store.
  void configure(DiskCacheConfig config);

  [[nodiscard]] bool enabled() const;
  [[nodiscard]] std::string dir() const;

  /// Returns the payload stored under `key`, or nullopt on any kind of
  /// absence: no entry, unreadable file, truncated or corrupt content,
  /// schema or key mismatch, or a payload `accept` (when given) rejects —
  /// a caller that cannot decode what it stored sees, and counts, a miss.
  /// A hit refreshes the entry's LRU position.
  std::optional<std::string> load(const CacheKey& key,
                                  const std::function<bool(std::string_view)>& accept = {});

  /// Persists `payload` under `key` (atomic temp-file + rename), then
  /// evicts least-recently-used entries beyond max_entries. Failures are
  /// silent (the cache is best-effort); corrupt leftovers read as
  /// misses.
  void store(const CacheKey& key, std::string_view payload);

  /// Removes every entry of the configured schema directory. Safe to
  /// call while other threads load/store — they observe misses.
  void invalidateAll();

  /// Traffic of the whole process (the cache.disk.* counters).
  [[nodiscard]] static std::uint64_t hits();
  [[nodiscard]] static std::uint64_t misses();
  [[nodiscard]] static std::uint64_t stores();
  [[nodiscard]] static std::uint64_t evictions();

  /// Number of entries currently on disk (test/diagnostic helper).
  [[nodiscard]] std::size_t entryCount() const;

  /// Process-wide instance, configured by the CLI from --cache-dir /
  /// FSDEP_CACHE_DIR and consulted by pipeline.cpp. Disabled until
  /// configured.
  static DiskCache& global();

 private:
  [[nodiscard]] std::string schemaDir() const;  ///< callers hold mu_
  [[nodiscard]] std::string entryPath(const CacheKey& key) const;
  void evictOverflow();  ///< callers hold mu_

  mutable std::mutex mu_;
  DiskCacheConfig config_;
};

}  // namespace fsdep::corpus
