// Parse-once component cache. The seed pipeline re-lexed, re-parsed and
// re-resolved every corpus component once per scenario — four times per
// Table 5 run. Each component is instead parsed exactly once per process
// and the immutable frontend results (SourceManager, AST, Sema) are
// shared across scenarios and threads; only the taint analysis, whose
// state is per-run, is re-executed per (scenario x component) pair.
//
// Concurrency: the first requester of a component parses it; concurrent
// requesters block on a shared future and get the same entry (one parse,
// N consumers). Entries are keyed by component name alone: nothing in an
// entry depends on the AnalysisOptions (the frontend and the IR take
// none), so intra, inter and no-bridging analyses share one parse and
// hand their options only to their own Analyzer.
//
// Traffic is counted only in the metrics registry, per component:
// cache.hits, cache.misses and cache.build_failures {component}, plus
// the unlabeled cache.waits. hits()/misses()/buildFailures() sum those
// series, so they count for every cache of the process.
//
// Failure semantics: a builder failure is NOT cached. The failing slot
// is evicted as the builder publishes the exception, so requesters that
// were already waiting see the error once and the next request retries
// the build (a transient failure — OOM, a fault-injected source
// provider — must not poison the component forever). Slots are
// ticketed, so an evict-on-failure races neither clear() nor a
// replacement build that claimed the slot in the meantime.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "sema/sema.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"
#include "taint/analyzer.h"

namespace fsdep::corpus {

/// One corpus component lexed, parsed, resolved and seeded — immutable
/// after construction, safe to share across threads. Taint analyzers are
/// built per consumer on top of the shared TU/Sema.
struct ComponentEntry {
  std::string name;
  bool is_kernel = false;
  SourceManager sm;
  DiagnosticEngine diags;
  std::unique_ptr<ast::TranslationUnit> tu;
  std::unique_ptr<sema::Sema> sema;
  std::vector<taint::Seed> seeds;
  /// Shared Taint-IR compilation memo over this TU: every analyzer built
  /// on the entry executes the same compiled streams, so warm runs skip
  /// CFG construction and lowering. The cache is internally locked; the
  /// compiled programs themselves are immutable.
  std::shared_ptr<taint::ir::IrCache> ir_cache = std::make_shared<taint::ir::IrCache>();
  std::uint64_t parse_ns = 0;  ///< wall time of lex+parse+sema
};

class ComponentCache {
 public:
  /// Returns the shared entry for `name`, parsing it first if this is
  /// the first request. Throws std::runtime_error for unknown components
  /// or corpus frontend bugs; the failed slot is evicted so a later
  /// call retries instead of rethrowing a stale error forever. `built`
  /// (optional) is set to true when this call did the parse, false when
  /// it reused or waited on one.
  std::shared_ptr<const ComponentEntry> get(const std::string& name, bool* built = nullptr);

  /// Parses a component without touching any cache (the seed's
  /// per-scenario behavior; benchmarks use this as the baseline).
  static std::shared_ptr<const ComponentEntry> build(const std::string& name);

  /// Cache traffic of the whole process: the sums of the registry's
  /// cache.hits, cache.misses and cache.build_failures series (a build
  /// failure evicts its slot for retry).
  [[nodiscard]] static std::uint64_t hits();
  [[nodiscard]] static std::uint64_t misses();
  [[nodiscard]] static std::uint64_t buildFailures();
  [[nodiscard]] std::size_t size() const;

  /// Drops every entry (outstanding shared_ptrs stay valid). Safe while
  /// builds are in flight: an in-flight builder publishes its result to
  /// the waiters it already has, notices its ticket no longer matches
  /// any slot, and leaves the post-clear() map alone.
  void clear();

  /// When disabled, get() builds fresh on every call (counted as a
  /// miss) — the CLI's --no-cache behavior. Entries already cached are
  /// kept but not consulted until re-enabled.
  void setEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  /// Test hook: replaces build() for this instance (e.g. a transient-
  /// failure source). Pass nullptr to restore the real builder. Not for
  /// production use.
  using Builder = std::function<std::shared_ptr<const ComponentEntry>(const std::string&)>;
  void setBuilderForTesting(Builder builder);

  /// Process-wide cache used by AnalyzedComponent and the pipeline.
  static ComponentCache& global();

 private:
  struct Slot {
    std::shared_future<std::shared_ptr<const ComponentEntry>> future;
    /// Monotonic id of the build occupying this slot. The builder
    /// carries its ticket; eviction (on failure) only removes the slot
    /// when the ticket still matches, so a concurrent clear() +
    /// replacement build is never clobbered.
    std::uint64_t ticket = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
  std::uint64_t next_ticket_ = 1;
  Builder builder_override_;
  std::atomic<bool> enabled_{true};
};

}  // namespace fsdep::corpus
