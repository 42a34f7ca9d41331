// End-to-end pipeline over the embedded corpus: parse each component with
// the fsdep frontend (once per process — see ComponentCache), resolve,
// seed, run the taint analysis on a scenario's pre-selected functions,
// extract dependencies, and score them against the ground truth. This is
// what the Table 5 bench, the CLI and the integration tests drive.
//
// Independent (scenario x component) analyses run concurrently on the
// support ThreadPool, and so does extraction, whose ordered merge
// consumes the results in a fixed order; serial and parallel runs
// produce byte-identical output.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ast/ast.h"
#include "corpus/component_cache.h"
#include "corpus/corpus.h"
#include "corpus/disk_cache.h"
#include "extract/extractor.h"
#include "extract/scoring.h"
#include "sema/sema.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"
#include "taint/analyzer.h"

namespace fsdep::corpus {

/// One parsed and resolved component, ready to be analyzed (possibly
/// several times with different function selections). Frontend results
/// come from the shared ComponentCache; the taint analyzer — the only
/// mutable part — is private to this instance, so many
/// AnalyzedComponents over the same component can run on different
/// threads at once.
class AnalyzedComponent {
 public:
  /// Obtains the named corpus component from the global ComponentCache
  /// (parsing it on first use). Throws std::runtime_error when the
  /// corpus fails to parse (a bug). `use_cache = false` forces a fresh
  /// parse, bypassing the cache — the seed's behavior, kept for
  /// benchmarking the cache itself.
  AnalyzedComponent(std::string name, const taint::AnalysisOptions& taint_options,
                    bool use_cache = true);

  /// (Re)runs the taint analysis on the given functions (empty = all).
  void analyze(const std::vector<std::string>& function_names);

  [[nodiscard]] const std::string& name() const { return entry_->name; }
  [[nodiscard]] const ast::TranslationUnit& tu() const { return *entry_->tu; }
  [[nodiscard]] const sema::Sema& semaRef() const { return *entry_->sema; }
  [[nodiscard]] taint::Analyzer& analyzer() { return *analyzer_; }
  [[nodiscard]] const taint::Analyzer& analyzer() const { return *analyzer_; }
  [[nodiscard]] const SourceManager& sourceManager() const { return entry_->sm; }
  [[nodiscard]] extract::ComponentRun asRun() const;

 private:
  std::shared_ptr<const ComponentEntry> entry_;
  std::unique_ptr<taint::Analyzer> analyzer_;
};

struct ScenarioResult {
  std::string id;
  std::string title;
  std::vector<model::Dependency> deps;
  extract::ScenarioScore score;
};

struct Table5Result {
  std::vector<ScenarioResult> per_scenario;
  extract::ScenarioScore unique_score;
  std::vector<model::Dependency> unique_deps;
};

/// Pipeline execution knobs (orthogonal to what is analyzed).
struct PipelineOptions {
  /// Worker count for independent (scenario x component) analyses and
  /// for extraction. 0 = the global default (FSDEP_JOBS env var, else hardware
  /// concurrency; the CLI's --jobs flag overrides). 1 = fully serial.
  std::size_t jobs = 0;
  /// When false, every component is parsed fresh instead of via the
  /// ComponentCache — the seed pipeline's behavior (benchmark baseline).
  bool use_cache = true;
  /// When false, the on-disk result cache is bypassed even if
  /// DiskCache::global() is configured (the CLI's --no-cache). When
  /// true, scenario results whose inputs (component sources, function
  /// selections, analysis/extract options) are unchanged load from disk
  /// and skip parse+sema+taint+extract entirely.
  bool use_disk_cache = true;
};

/// Content-hashed identity of one scenario run: scenario id, every
/// selected component's source digest + function selection, the full
/// AnalysisOptions and ExtractOptions fingerprints, and the cache schema
/// version. Any input change produces a different key (= a miss).
CacheKey scenarioCacheKey(const Scenario& scenario,
                          const taint::AnalysisOptions& taint_options,
                          const extract::ExtractOptions& extract_options);

/// Cumulative perf counters of every pipeline run in this process
/// (parse/analyze/extract wall time, fixpoint merges, cache traffic).
/// A text-format view over the obs metrics registry's "pipeline.*" and
/// "cache.*" series (see src/obs/metrics.h) — all storage is relaxed
/// atomics in the registry, so concurrent runs, snapshots and resets
/// never tear. Snapshot with pipelineStatsSnapshot(); the CLI prints
/// the (byte-stable) text rendering under --stats, and the full labeled
/// series under --metrics.
struct PipelineStats {
  std::uint64_t parse_ns = 0;
  std::uint64_t analyze_ns = 0;
  std::uint64_t extract_ns = 0;
  std::uint64_t components_analyzed = 0;
  std::uint64_t merge_calls = 0;
  std::uint64_t merge_grew = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t jobs = 0;  ///< worker count of the most recent run

  [[nodiscard]] std::string format() const;
};

PipelineStats pipelineStatsSnapshot();
void resetPipelineStats();

/// Runs scenarios (parse + analyze + extract), unscored, and returns each
/// one's dependencies in the order given. Extraction options come from
/// the corpus unless overridden; the metadata owner always comes from the
/// scenario. A scenario whose result DiskCache::global() holds loads from
/// disk; the (scenario x component) analyses of the others run together
/// on the pool. The result is identical to a serial run.
std::vector<std::vector<model::Dependency>> runScenarios(
    const std::vector<Scenario>& scenarios, const taint::AnalysisOptions& taint_options = {},
    const extract::ExtractOptions* extract_override = nullptr,
    const PipelineOptions& pipeline = {});

/// runScenarios over one scenario.
std::vector<model::Dependency> runScenario(const Scenario& scenario,
                                           const taint::AnalysisOptions& taint_options = {},
                                           const extract::ExtractOptions* extract_override = nullptr,
                                           const PipelineOptions& pipeline = {});

/// Runs the whole Table-5 experiment: runScenarios over s1..s4, each
/// scored against the ground truth, plus the unique row.
Table5Result runTable5(const taint::AnalysisOptions& taint_options = {},
                       const extract::ExtractOptions* extract_override = nullptr,
                       const PipelineOptions& pipeline = {});

/// Extracts dependencies from analyzed components, in their order, on
/// `jobs` workers (0 = the global default) and records the time and the
/// count under pipeline.extract_ns / pipeline.deps_extracted
/// {scenario=`scenario_id`}. Every extraction the pipeline and `fsdep
/// amplify` run goes through here, so --stats sees all of them.
std::vector<model::Dependency> extractComponents(
    const std::vector<std::unique_ptr<AnalyzedComponent>>& components,
    const extract::ExtractOptions& options, const std::string& scenario_id,
    std::size_t jobs = 0);

/// Renders Table 5 in the paper's layout.
std::string formatTable5(const Table5Result& result);

}  // namespace fsdep::corpus
