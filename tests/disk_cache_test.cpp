// DiskCache robustness: corruption-tolerant loads (any anomaly is a
// miss, never an error), schema-version isolation, option-keyed
// invalidation, LRU eviction, and byte-identical pipeline results
// cached vs uncached. Cache traffic is counted in the process-wide
// registry, so the tests read it as deltas.
#include "corpus/disk_cache.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "corpus/pipeline.h"
#include "extract/extractor.h"
#include "json/json.h"
#include "model/serialization.h"
#include "taint/analyzer.h"

namespace fsdep::corpus {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test cache directory under the system temp dir.
class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("fsdep-disk-cache-test-" +
             std::string(::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

/// The process-wide disk-cache counts since construction.
struct Traffic {
  std::uint64_t hits0 = DiskCache::hits();
  std::uint64_t misses0 = DiskCache::misses();
  std::uint64_t stores0 = DiskCache::stores();
  std::uint64_t evictions0 = DiskCache::evictions();
  [[nodiscard]] std::uint64_t hits() const { return DiskCache::hits() - hits0; }
  [[nodiscard]] std::uint64_t misses() const { return DiskCache::misses() - misses0; }
  [[nodiscard]] std::uint64_t stores() const { return DiskCache::stores() - stores0; }
  [[nodiscard]] std::uint64_t evictions() const { return DiskCache::evictions() - evictions0; }
};

CacheKey keyOf(const std::string& seed) {
  CacheKey key;
  key.mix(seed);
  return key;
}

TEST_F(DiskCacheTest, StoreThenLoadRoundTrips) {
  DiskCache cache(DiskCacheConfig{dir_});
  const Traffic traffic;
  ASSERT_TRUE(cache.enabled());
  const CacheKey key = keyOf("round-trip");
  EXPECT_EQ(cache.load(key), std::nullopt);
  EXPECT_EQ(traffic.misses(), 1u);

  const std::string payload = [] {
    std::string bytes = "payload with\nnewlines and ";
    bytes.push_back('\0');
    bytes += "\x01\xff binary bytes inside";
    return bytes;
  }();
  cache.store(key, payload);
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(traffic.hits(), 1u);
  EXPECT_EQ(traffic.stores(), 1u);
  EXPECT_EQ(cache.entryCount(), 1u);
}

TEST_F(DiskCacheTest, UnconfiguredCacheIsDisabledAndAlwaysMisses) {
  DiskCache cache;
  EXPECT_FALSE(cache.enabled());
  cache.store(keyOf("k"), "ignored");
  EXPECT_EQ(cache.load(keyOf("k")), std::nullopt);
  EXPECT_EQ(cache.entryCount(), 0u);
}

TEST_F(DiskCacheTest, CacheKeyLengthPrefixingDisambiguatesConcatenation) {
  CacheKey ab_c;
  ab_c.mix("ab");
  ab_c.mix("c");
  CacheKey a_bc;
  a_bc.mix("a");
  a_bc.mix("bc");
  EXPECT_NE(ab_c.hex(), a_bc.hex());
  EXPECT_EQ(keyOf("same").hex(), keyOf("same").hex());
  EXPECT_EQ(keyOf("same").hex().size(), 32u);
}

TEST_F(DiskCacheTest, TruncatedEntryLoadsAsMiss) {
  DiskCache cache(DiskCacheConfig{dir_});
  const CacheKey key = keyOf("truncate-me");
  cache.store(key, std::string(4096, 'x'));
  ASSERT_TRUE(cache.load(key).has_value());

  // Tear the file mid-payload (a crash between write and rename cannot
  // produce this, but a full disk or manual tampering can).
  const std::string path = dir_ + "/v" + std::to_string(kDiskCacheSchemaVersion) + "/" +
                           key.hex() + ".entry";
  fs::resize_file(path, fs::file_size(path) / 2);
  EXPECT_EQ(cache.load(key), std::nullopt) << "truncated entry must be a miss, not an error";
}

TEST_F(DiskCacheTest, CorruptHeaderAndTrailingGarbageLoadAsMisses) {
  DiskCache cache(DiskCacheConfig{dir_});
  const CacheKey key = keyOf("corrupt-me");
  cache.store(key, "good payload");
  const std::string path = dir_ + "/v" + std::to_string(kDiskCacheSchemaVersion) + "/" +
                           key.hex() + ".entry";

  {  // garbage header
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not-a-cache-entry at all\n";
  }
  EXPECT_EQ(cache.load(key), std::nullopt);

  {  // valid header, size field lies (trailing garbage)
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "fsdep-cache v" << kDiskCacheSchemaVersion << " " << key.hex() << " 4\n";
    out << "0123EXTRA";
  }
  EXPECT_EQ(cache.load(key), std::nullopt);

  {  // header claims a different key (hand-renamed file)
    CacheKey other = keyOf("some-other-key");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "fsdep-cache v" << kDiskCacheSchemaVersion << " " << other.hex() << " 2\n";
    out << "ok";
  }
  EXPECT_EQ(cache.load(key), std::nullopt);

  // A rewritten valid entry works again — corruption never wedges a key.
  cache.store(key, "fresh payload");
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "fresh payload");
}

TEST_F(DiskCacheTest, SchemaVersionBumpInvalidatesCleanly) {
  DiskCache old_cache(DiskCacheConfig{dir_, 512, kDiskCacheSchemaVersion});
  const CacheKey key = keyOf("schema");
  old_cache.store(key, "written by the old schema");
  ASSERT_TRUE(old_cache.load(key).has_value());

  DiskCache new_cache(DiskCacheConfig{dir_, 512, kDiskCacheSchemaVersion + 1});
  EXPECT_EQ(new_cache.load(key), std::nullopt)
      << "a schema bump must never read old entries";
  new_cache.store(key, "written by the new schema");
  EXPECT_EQ(*new_cache.load(key), "written by the new schema");
  // Both schema trees coexist; neither tramples the other.
  EXPECT_EQ(*old_cache.load(key), "written by the old schema");
}

// A schema bump (v4 → v5: the trace cap and the extract-side bridging
// switch left the key fingerprint) must leave the previous version's
// tree on disk exactly as the old binary wrote it: a current cache over
// the same directory reads it as misses — never errors — and populates
// its own tree alongside.
TEST_F(DiskCacheTest, OldSchemaTreesCoexistAndReadAsMisses) {
  static_assert(kDiskCacheSchemaVersion >= 5,
                "dropping the trace cap and a bridging switch from the key bumped the schema to v5");
  DiskCache v1(DiskCacheConfig{dir_, 512, kDiskCacheSchemaVersion - 1});
  const CacheKey key = keyOf("schema-bump");
  v1.store(key, "previous-schema entry");
  ASSERT_TRUE(v1.load(key).has_value());

  DiskCache current(DiskCacheConfig{dir_});  // defaults to kDiskCacheSchemaVersion
  const Traffic traffic;
  EXPECT_EQ(current.load(key), std::nullopt)
      << "a v" << kDiskCacheSchemaVersion - 1 << " entry must read as a v"
      << kDiskCacheSchemaVersion << " miss";
  EXPECT_EQ(traffic.misses(), 1u);
  EXPECT_EQ(current.entryCount(), 0u) << "the old tree must not count as current entries";

  current.store(key, "current-schema entry");
  EXPECT_EQ(*current.load(key), "current-schema entry");

  // Both version trees exist side by side, each still serving its own
  // binary; invalidating the current schema leaves the old tree alone.
  const std::string old_tree = dir_ + "/v" + std::to_string(kDiskCacheSchemaVersion - 1);
  const std::string new_tree = dir_ + "/v" + std::to_string(kDiskCacheSchemaVersion);
  EXPECT_TRUE(fs::is_directory(old_tree));
  EXPECT_TRUE(fs::is_directory(new_tree));
  EXPECT_EQ(*v1.load(key), "previous-schema entry");

  current.invalidateAll();
  EXPECT_FALSE(fs::exists(new_tree));
  EXPECT_EQ(*v1.load(key), "previous-schema entry") << "invalidateAll must be schema-scoped";
}

TEST_F(DiskCacheTest, AnalysisOptionsChangeProducesDifferentKeys) {
  const std::vector<Scenario> all = scenarios();
  ASSERT_FALSE(all.empty());
  const extract::ExtractOptions eopts = extractOptions();

  taint::AnalysisOptions intra;
  taint::AnalysisOptions inter;
  inter.inter_procedural = true;
  EXPECT_NE(scenarioCacheKey(all[0], intra, eopts).hex(),
            scenarioCacheKey(all[0], inter, eopts).hex())
      << "--inter must never be served an --intra entry";

  taint::AnalysisOptions no_bridging = intra;
  no_bridging.field_bridging = false;
  EXPECT_NE(scenarioCacheKey(all[0], intra, eopts).hex(),
            scenarioCacheKey(all[0], no_bridging, eopts).hex());

  extract::ExtractOptions eopts2 = eopts;
  eopts2.metadata_owner = "xfs";
  EXPECT_NE(scenarioCacheKey(all[0], intra, eopts).hex(),
            scenarioCacheKey(all[0], intra, eopts2).hex());

  if (all.size() > 1) {
    EXPECT_NE(scenarioCacheKey(all[0], intra, eopts).hex(),
              scenarioCacheKey(all[1], intra, eopts).hex());
  }
}

TEST_F(DiskCacheTest, LruEvictionDropsTheOldestEntries) {
  DiskCache cache(DiskCacheConfig{dir_, /*max_entries=*/4});
  const Traffic traffic;
  for (int i = 0; i < 8; ++i) {
    cache.store(keyOf("entry-" + std::to_string(i)), "payload");
  }
  EXPECT_LE(cache.entryCount(), 4u);
  EXPECT_GE(traffic.evictions(), 4u);
  // The newest entry survives.
  EXPECT_TRUE(cache.load(keyOf("entry-7")).has_value());
}

TEST_F(DiskCacheTest, InvalidateAllEmptiesTheSchemaTree) {
  DiskCache cache(DiskCacheConfig{dir_});
  cache.store(keyOf("a"), "1");
  cache.store(keyOf("b"), "2");
  EXPECT_EQ(cache.entryCount(), 2u);
  cache.invalidateAll();
  EXPECT_EQ(cache.entryCount(), 0u);
  EXPECT_EQ(cache.load(keyOf("a")), std::nullopt);
  // Still usable afterwards.
  cache.store(keyOf("a"), "3");
  EXPECT_EQ(*cache.load(keyOf("a")), "3");
}

/// End-to-end: runScenario with a disk cache produces byte-identical
/// dependencies on the cold (store) and warm (load) paths, and the warm
/// path does zero component builds.
TEST_F(DiskCacheTest, PipelineResultsAreByteIdenticalCachedVsUncached) {
  DiskCache& disk = DiskCache::global();
  disk.configure(DiskCacheConfig{dir_});
  const Scenario scenario = scenarios().front();
  const taint::AnalysisOptions topts;

  const std::vector<model::Dependency> uncached =
      runScenario(scenario, topts, nullptr, PipelineOptions{0, true, /*use_disk_cache=*/false});
  const std::vector<model::Dependency> cold =
      runScenario(scenario, topts, nullptr, PipelineOptions{0, true, true});
  const Traffic traffic;
  const std::vector<model::Dependency> warm =
      runScenario(scenario, topts, nullptr, PipelineOptions{0, true, true});
  EXPECT_GT(traffic.hits(), 0u) << "second run must be served from disk";

  const std::string baseline = json::writeCompact(model::toJson(uncached));
  EXPECT_EQ(baseline, json::writeCompact(model::toJson(cold)));
  EXPECT_EQ(baseline, json::writeCompact(model::toJson(warm)));

  disk.configure(DiskCacheConfig{});  // detach the global cache again
}

TEST_F(DiskCacheTest, RejectedPayloadIsAMiss) {
  DiskCache cache(DiskCacheConfig{dir_});
  const CacheKey key = keyOf("rejected");
  cache.store(key, "payload the caller cannot decode");
  const Traffic traffic;
  EXPECT_FALSE(cache.load(key, [](std::string_view) { return false; }).has_value());
  EXPECT_EQ(traffic.hits(), 0u);
  EXPECT_EQ(traffic.misses(), 1u);
  EXPECT_TRUE(cache.load(key, [](std::string_view) { return true; }).has_value());
  EXPECT_EQ(traffic.hits(), 1u);
}

TEST_F(DiskCacheTest, DeeplyNestedPayloadIsAMissAndTheScenarioRecomputes) {
  DiskCache& disk = DiskCache::global();
  disk.configure(DiskCacheConfig{dir_});
  const Scenario scenario = scenarios().front();
  const taint::AnalysisOptions topts;
  const std::vector<model::Dependency> uncached =
      runScenario(scenario, topts, nullptr, PipelineOptions{0, true, /*use_disk_cache=*/false});

  // A valid entry header in front of 300,000 '[': the JSON parser's depth
  // budget rejects the payload, so the load counts as a miss.
  disk.store(scenarioCacheKey(scenario, topts, extractOptions()), std::string(300000, '['));
  const Traffic traffic;
  const std::vector<model::Dependency> recomputed =
      runScenario(scenario, topts, nullptr, PipelineOptions{0, true, true});
  EXPECT_EQ(traffic.hits(), 0u);
  EXPECT_EQ(traffic.misses(), 1u);
  EXPECT_EQ(json::writeCompact(model::toJson(recomputed)),
            json::writeCompact(model::toJson(uncached)));

  disk.configure(DiskCacheConfig{});  // detach the global cache again
}

}  // namespace
}  // namespace fsdep::corpus
