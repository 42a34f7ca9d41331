// Per-layer metrics: the canonical list (name, unit, and which end-to-end
// metric on which workload each should move), the accumulator a traced
// run fills, and the layer sub-passes shared by the workloads.
//
// Some layers are only reachable through a caller: lex/parse/sema run
// inside ComponentCache::build and CFG construction / IR lowering inside
// Analyzer::run. The frontend sub-pass calls those layers' public entry
// points directly on the workload's own corpus so their time can be
// attributed; the traced run says so in its output.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "corpus/pipeline.h"
#include "harness.h"

namespace fsbench {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
  const char* moves;  ///< "<end-to-end metric> on <workload>" it should move
};

/// Every per-layer metric, in output order (BENCHMARK.json lists the same).
const std::vector<LayerMetricSpec>& layerMetricSpecs();

/// Per-layer values of one traced run. Metrics a workload does not reach
/// stay 0 and are printed as such.
class LayerMetrics {
 public:
  void set(const std::string& name, double value, std::size_t samples = 1,
           const std::string& note = "");
  /// Adds every spec'd metric to `report`, in canonical order.
  void emit(Report& report) const;

 private:
  struct Value {
    double value = 0;
    std::size_t samples = 0;
    std::string note;
  };
  std::map<std::string, Value> values_;
};

/// Taint accessor totals over a set of analyzed components.
struct TaintCounters {
  std::uint64_t stmt_visits = 0;
  std::uint64_t ir_instrs = 0;
  std::uint64_t ir_visits = 0;
  std::uint64_t merge_calls = 0;
  std::uint64_t merge_grew = 0;
  std::uint64_t concrete_skips = 0;
  std::uint64_t arena_bytes = 0;

  void add(const fsdep::taint::Analyzer& analyzer);
  void publish(LayerMetrics& layers, const std::string& note) const;
};

/// Frontend sub-pass: preprocess+lex, parse, resolve, then build the CFG
/// and compile the Taint-IR of every function definition, one component
/// at a time on this thread, each call in its own span. Publishes lex.*,
/// ast.*, sema.*, cfg.* and taint.ir_compile_ms. Throws on a frontend
/// error (the corpus must parse).
void frontendSubPass(const std::vector<std::string>& components, LayerMetrics& layers);

/// Analysis sub-pass over the Table 5 scenario x component matrix (intra,
/// the CLI default), on this thread: AnalyzedComponent (ComponentCache
/// get), analyze and per-scenario extraction, each in its own span.
/// Publishes taint.*, corpus.cache_get_ms and extract.*.
void table5SubPass(LayerMetrics& layers);

/// Pool occupancy of a traced parallel section: `worker_span` spans under
/// the section's span `section`, per thread. Publishes
/// support.pool_busy_ratio (worker busy time / (section wall x jobs)) and
/// support.pool_tail_ms (last worker finish - first worker finish),
/// averaged over sections.
void publishPoolMetrics(const std::string& section, const std::string& worker_span,
                        std::size_t jobs, LayerMetrics& layers);

/// ComponentCache traffic since `since` (hits, misses, waits).
struct CacheTraffic {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t waits = 0;
  static CacheTraffic now();
  [[nodiscard]] CacheTraffic minus(const CacheTraffic& since) const;
  void publish(LayerMetrics& layers, double per_ops, const std::string& note) const;
};

}  // namespace fsbench
