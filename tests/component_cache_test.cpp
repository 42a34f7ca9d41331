// ComponentCache behavior: parse-once semantics, concurrent first
// access, one entry for every AnalysisOptions, error propagation —
// including the failure-poisoning regression (a failed build must be
// retried, not cached forever) and clear()-during-build safety. Cache
// traffic is counted in the process-wide registry series, so each test
// reads it as deltas.
#include "corpus/component_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "corpus/pipeline.h"
#include "golden_digest.h"

namespace fsdep::corpus {
namespace {

/// The process-wide cache counts since construction.
struct Traffic {
  std::uint64_t hits0 = ComponentCache::hits();
  std::uint64_t misses0 = ComponentCache::misses();
  std::uint64_t failures0 = ComponentCache::buildFailures();
  [[nodiscard]] std::uint64_t hits() const { return ComponentCache::hits() - hits0; }
  [[nodiscard]] std::uint64_t misses() const { return ComponentCache::misses() - misses0; }
  [[nodiscard]] std::uint64_t buildFailures() const {
    return ComponentCache::buildFailures() - failures0;
  }
};

TEST(ComponentCache, ColdMissThenWarmHitsShareOneEntry) {
  ComponentCache cache;
  const Traffic traffic;

  const auto first = cache.get("mke2fs");
  EXPECT_EQ(traffic.misses(), 1u);
  EXPECT_EQ(traffic.hits(), 0u);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->name, "mke2fs");
  ASSERT_NE(first->tu, nullptr);
  ASSERT_NE(first->sema, nullptr);
  EXPECT_FALSE(first->seeds.empty());

  const auto second = cache.get("mke2fs");
  EXPECT_EQ(traffic.misses(), 1u);
  EXPECT_EQ(traffic.hits(), 1u);
  EXPECT_EQ(first.get(), second.get()) << "warm hit must reuse the parsed entry";
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ComponentCache, ConcurrentFirstAccessParsesExactlyOnce) {
  ComponentCache cache;
  const Traffic traffic;
  constexpr int kThreads = 8;

  std::vector<std::shared_ptr<const ComponentEntry>> entries(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &entries, t] {
        entries[static_cast<std::size_t>(t)] = cache.get("resize2fs");
      });
    }
    for (std::thread& t : threads) t.join();
  }

  EXPECT_EQ(traffic.misses(), 1u) << "only the first requester may parse";
  EXPECT_EQ(traffic.hits(), static_cast<std::uint64_t>(kThreads - 1));
  for (const auto& entry : entries) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), entries.front().get());
  }
}

// Nothing in an entry depends on the AnalysisOptions: an intra and an
// inter analysis share one parse, and each equals the same analysis over
// a fresh parse (its state, and the answers extraction asks of it).
TEST(ComponentCache, IntraAndInterAnalysesShareOneEntry) {
  ComponentCache cache;
  const Traffic traffic;
  taint::AnalysisOptions intra;
  taint::AnalysisOptions inter;
  inter.inter_procedural = true;
  const auto analyze = [](const ComponentEntry& entry, const taint::AnalysisOptions& options) {
    taint::Analyzer analyzer(*entry.tu, *entry.sema, options);
    analyzer.setIrCache(entry.ir_cache);
    for (const taint::Seed& seed : entry.seeds) analyzer.addSeed(seed);
    analyzer.run();
    return golden::analyzerState(analyzer) +
           golden::guardQueries(analyzer, *entry.sema, extractOptions().error_functions);
  };

  const auto for_intra = cache.get("ext4");
  const std::string shared_intra = analyze(*for_intra, intra);
  const auto for_inter = cache.get("ext4");
  const std::string shared_inter = analyze(*for_inter, inter);
  EXPECT_EQ(for_intra.get(), for_inter.get()) << "one entry serves both option sets";
  EXPECT_EQ(traffic.misses(), 1u);
  EXPECT_EQ(traffic.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  EXPECT_EQ(shared_intra, analyze(*ComponentCache::build("ext4"), intra));
  EXPECT_EQ(shared_inter, analyze(*ComponentCache::build("ext4"), inter));
  EXPECT_NE(shared_intra, shared_inter) << "the two analyses differ, so the check has teeth";
}

TEST(ComponentCache, UnknownComponentFailureIsNeverCached) {
  ComponentCache cache;
  const Traffic traffic;
  EXPECT_THROW(cache.get("no-such-component"), std::runtime_error);
  EXPECT_EQ(traffic.buildFailures(), 1u);
  EXPECT_EQ(cache.size(), 0u) << "the failed slot must be evicted";
  // The next request must retry the build (another miss + failure), not
  // rethrow a poisoned future as a hit.
  EXPECT_THROW(cache.get("no-such-component"), std::runtime_error);
  EXPECT_EQ(traffic.misses(), 2u);
  EXPECT_EQ(traffic.hits(), 0u);
  EXPECT_EQ(traffic.buildFailures(), 2u);
}

// The headline regression: a transient builder failure (fault-injected
// source, OOM, ...) used to poison the slot — every later get() for the
// same name rethrew the first exception forever. This test
// fails on the old ComponentCache and passes with failure eviction.
TEST(ComponentCache, TransientBuilderFailureRetriesAndSucceeds) {
  ComponentCache cache;
  const Traffic traffic;
  std::atomic<int> calls{0};
  cache.setBuilderForTesting(
      [&calls](const std::string& name) {
        if (calls.fetch_add(1) == 0) throw std::runtime_error("transient source failure");
        return ComponentCache::build(name);
      });

  EXPECT_THROW(cache.get("mke2fs"), std::runtime_error);
  EXPECT_EQ(traffic.buildFailures(), 1u);

  const auto entry = cache.get("mke2fs");
  ASSERT_NE(entry, nullptr) << "second request must retry, not rethrow the cached failure";
  EXPECT_EQ(entry->name, "mke2fs");
  EXPECT_EQ(calls.load(), 2);

  const auto again = cache.get("mke2fs");
  EXPECT_EQ(entry.get(), again.get()) << "the successful retry is cached normally";
  EXPECT_EQ(traffic.hits(), 1u);
}

// N threads pile onto a build that fails: everyone already waiting sees
// the exception exactly once, latecomers retry, and a final request
// succeeds. Run under TSan via check_sanitize.sh.
TEST(ComponentCache, WaitersDuringFailedBuildSeeErrorThenRetrySucceeds) {
  ComponentCache cache;
  const Traffic traffic;
  std::atomic<int> calls{0};
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  cache.setBuilderForTesting(
      [&](const std::string& name) {
        if (calls.fetch_add(1) == 0) {
          release.wait();  // hold the waiters on the shared_future
          throw std::runtime_error("transient source failure");
        }
        return ComponentCache::build(name);
      });

  constexpr int kThreads = 8;
  std::atomic<int> errors{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        if (cache.get("mount") != nullptr) successes.fetch_add(1);
      } catch (const std::runtime_error&) {
        errors.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release_promise.set_value();
  for (std::thread& t : threads) t.join();

  EXPECT_GE(errors.load(), 1) << "at least the failing builder's own request errors";
  EXPECT_EQ(errors.load() + successes.load(), kThreads);
  EXPECT_EQ(traffic.buildFailures(), 1u);

  const auto entry = cache.get("mount");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "mount");
}

TEST(ComponentCache, ClearDuringInFlightBuildIsSafe) {
  ComponentCache cache;
  std::promise<void> started_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  cache.setBuilderForTesting(
      [&](const std::string& name) {
        started_promise.set_value();
        release.wait();
        return ComponentCache::build(name);
      });

  std::thread builder([&] {
    const auto entry = cache.get("ext4");
    EXPECT_NE(entry, nullptr) << "the in-flight build still completes for its waiters";
  });
  started_promise.get_future().wait();
  cache.clear();  // drops the slot while the builder is running
  release_promise.set_value();
  builder.join();

  // The finished builder's ticket no longer matches any slot, so it
  // must not resurrect or corrupt the cleared map.
  EXPECT_EQ(cache.size(), 0u);
  cache.setBuilderForTesting(nullptr);
  const auto entry = cache.get("ext4");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ComponentCache, DisabledCacheBuildsFreshAndPreservesEntries) {
  ComponentCache cache;
  const Traffic traffic;
  const auto cached_entry = cache.get("mke2fs");

  cache.setEnabled(false);
  const auto fresh = cache.get("mke2fs");
  EXPECT_NE(cached_entry.get(), fresh.get()) << "disabled cache must parse fresh";
  EXPECT_EQ(cache.size(), 1u) << "existing entries are kept, not clobbered";
  EXPECT_EQ(traffic.misses(), 2u);

  cache.setEnabled(true);
  const auto warm = cache.get("mke2fs");
  EXPECT_EQ(cached_entry.get(), warm.get()) << "re-enabling serves the original entry";
}

TEST(ComponentCache, ClearDropsEntriesButKeepsOutstandingPointersValid) {
  ComponentCache cache;
  const Traffic traffic;
  const auto entry = cache.get("e2fsck");
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(entry->name, "e2fsck");  // shared_ptr still owns the entry
  const auto again = cache.get("e2fsck");
  EXPECT_EQ(traffic.misses(), 2u);
  EXPECT_NE(entry.get(), again.get());
}

TEST(ComponentCache, BuildBypassesCaching) {
  const auto a = ComponentCache::build("mke2fs");
  const auto b = ComponentCache::build("mke2fs");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get()) << "build() must parse fresh every time";
}

TEST(ComponentCache, AnalyzedComponentsShareTheGlobalEntry) {
  const taint::AnalysisOptions options;
  AnalyzedComponent first("mke2fs", options);
  AnalyzedComponent second("mke2fs", options);
  EXPECT_EQ(&first.tu(), &second.tu()) << "same shared TU from the global cache";
  EXPECT_NE(&first.analyzer(), &second.analyzer()) << "analyzers stay per-instance";
}

}  // namespace
}  // namespace fsdep::corpus
