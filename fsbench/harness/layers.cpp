#include "layers.h"

#include <algorithm>
#include <stdexcept>

#include "ast/parser.h"
#include "cfg/cfg.h"
#include "corpus/corpus.h"
#include "lex/preprocessor.h"
#include "obs/metrics.h"
#include "sema/sema.h"
#include "support/source_manager.h"
#include "taint/ir.h"

namespace fsbench {

using namespace fsdep;

namespace {

constexpr const char* kAmplifyPass = "latency_ms_p50 on amplify-cold";
constexpr const char* kAmplifyThroughput = "throughput_per_s on amplify-cold";
constexpr const char* kServeLatency = "latency_ms_p50/latency_ms_tail on serve-mixed";
constexpr const char* kServeComputed = "computed_ms_p50 on serve-mixed";
constexpr const char* kCampaign = "throughput_per_s/latency_ms_p50 on campaign";

}  // namespace

const std::vector<LayerMetricSpec>& layerMetricSpecs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"lex.tokenize_ms", "ms", kAmplifyPass},
      {"lex.tokens", "count", kAmplifyPass},
      {"ast.parse_ms", "ms", kAmplifyPass},
      {"sema.resolve_ms", "ms", kAmplifyPass},
      {"cfg.build_ms", "ms", kAmplifyPass},
      {"taint.ir_compile_ms", "ms", kAmplifyPass},
      {"corpus.cache_get_ms", "ms", "latency_ms_p50 on amplify-cold, computed_ms_p50 on serve-mixed"},
      {"corpus.cache_hits", "count", "latency_ms_p50 on amplify-cold, computed_ms_p50 on serve-mixed"},
      {"corpus.cache_misses", "count", "latency_ms_p50 on amplify-cold, computed_ms_p50 on serve-mixed"},
      {"corpus.cache_waits", "count", "latency_ms_p50 on amplify-cold, computed_ms_p50 on serve-mixed"},
      {"taint.analyze_ms", "ms", kAmplifyThroughput},
      {"taint.component_ms_p95", "ms", kAmplifyThroughput},
      {"taint.stmt_visits", "count", kAmplifyThroughput},
      {"taint.ir_instrs", "count", kAmplifyThroughput},
      {"taint.ir_visits", "count", kAmplifyThroughput},
      {"taint.merge_calls", "count", kAmplifyThroughput},
      {"taint.merge_productive_ratio", "ratio", kAmplifyThroughput},
      {"taint.concrete_skips", "count", kAmplifyThroughput},
      {"taint.arena_bytes", "bytes", kAmplifyThroughput},
      {"extract.extract_ms", "ms", kAmplifyPass},
      {"extract.deps", "count", kAmplifyPass},
      {"support.pool_busy_ratio", "ratio", "throughput_per_s/latency_ms_tail on amplify-cold, throughput_per_s on campaign"},
      {"support.pool_tail_ms", "ms", "throughput_per_s/latency_ms_tail on amplify-cold, throughput_per_s on campaign"},
      {"corpus.generate_ms", "ms", "setup_s on amplify-cold"},
      {"tools.serve_handle_us_p50", "us", kServeLatency},
      {"tools.serve_handle_us_p99", "us", kServeLatency},
      {"tools.serve_transport_us_p50", "us", kServeLatency},
      {"tools.serve_memo_hit_ratio", "ratio", kServeLatency},
      {"json.parse_mb_per_s", "MB/s", kServeLatency},
      {"corpus.disk_hits", "count", kServeComputed},
      {"corpus.disk_misses", "count", kServeComputed},
      {"corpus.disk_stores", "count", kServeComputed},
      {"corpus.disk_load_us_p50", "us", kServeComputed},
      {"corpus.disk_store_us_p50", "us", kServeComputed},
      {"corpus.run_scenario_ms_cold", "ms", kServeComputed},
      {"corpus.run_scenario_ms_warm", "ms", kServeComputed},
      {"tools.confgen_ms", "ms", kCampaign},
      {"tools.cell_ms_p50", "ms", kCampaign},
      {"tools.cell_ms_p99", "ms", kCampaign},
      {"tools.cell_busy_ms.mkfs", "ms", kCampaign},
      {"tools.cell_busy_ms.mount", "ms", kCampaign},
      {"tools.cell_busy_ms.resize", "ms", kCampaign},
      {"tools.cell_busy_ms.resize-buggy", "ms", kCampaign},
      {"tools.cell_busy_ms.defrag", "ms", kCampaign},
      {"tools.cell_busy_ms.tune", "ms", kCampaign},
      {"tools.minimize_ms", "ms", kCampaign},
      {"tools.minimizer_probes", "count", kCampaign},
      {"tools.dedup_ratio", "ratio", kCampaign},
      {"tools.unique_outcomes", "count", kCampaign},
      {"tools.failed_cells", "count", kCampaign},
      {"fsim.block_reads", "count", kCampaign},
      {"fsim.block_writes", "count", kCampaign},
      {"fsim.digest_us_p50", "us", kCampaign},
      {"harness.trace_overhead_pct", "%", "every end-to-end metric, every workload"},
      {"harness.spans", "count", "every end-to-end metric, every workload"},
  };
  return specs;
}

void LayerMetrics::set(const std::string& name, double value, std::size_t samples,
                       const std::string& note) {
  const auto& specs = layerMetricSpecs();
  const bool known = std::any_of(specs.begin(), specs.end(),
                                 [&](const LayerMetricSpec& s) { return name == s.name; });
  if (!known) throw std::logic_error("fsbench: unknown per-layer metric " + name);
  values_[name] = Value{value, samples, note};
}

void LayerMetrics::emit(Report& report) const {
  for (const LayerMetricSpec& spec : layerMetricSpecs()) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) {
      report.add(spec.name, 0, spec.unit, 0, "not reached by this workload");
      continue;
    }
    std::string note = it->second.note;
    if (!note.empty()) note += "; ";
    note += "moves " + std::string(spec.moves);
    report.add(spec.name, it->second.value, spec.unit, it->second.samples, note);
  }
}

void TaintCounters::add(const taint::Analyzer& analyzer) {
  stmt_visits += analyzer.stmtVisits();
  ir_instrs += analyzer.irInstrs();
  ir_visits += analyzer.irVisits();
  merge_calls += analyzer.mergeCalls();
  merge_grew += analyzer.mergeGrew();
  concrete_skips += analyzer.concreteSkips();
  arena_bytes += analyzer.arenaBytes();
}

void TaintCounters::publish(LayerMetrics& layers, const std::string& note) const {
  layers.set("taint.stmt_visits", static_cast<double>(stmt_visits), 1, note);
  layers.set("taint.ir_instrs", static_cast<double>(ir_instrs), 1, note);
  layers.set("taint.ir_visits", static_cast<double>(ir_visits), 1, note);
  layers.set("taint.merge_calls", static_cast<double>(merge_calls), 1, note);
  layers.set("taint.merge_productive_ratio",
             merge_calls > 0 ? static_cast<double>(merge_grew) / static_cast<double>(merge_calls)
                             : 0,
             merge_calls, note);
  layers.set("taint.concrete_skips", static_cast<double>(concrete_skips), 1, note);
  layers.set("taint.arena_bytes", static_cast<double>(arena_bytes), 1, note);
}

void frontendSubPass(const std::vector<std::string>& components, LayerMetrics& layers) {
  std::uint64_t tokens = 0;
  std::size_t functions = 0;
  double tokenize_ms = 0;
  double parse_ms = 0;
  double resolve_ms = 0;
  double cfg_ms = 0;
  double compile_ms = 0;
  Span root("frontend.subpass");
  for (const std::string& name : components) {
    SourceManager sm;
    DiagnosticEngine diags;
    const FileId file = sm.addBuffer(name + ".c", std::string(corpus::componentSource(name)));
    lex::Preprocessor pp(sm, diags,
                         [](std::string_view header) { return corpus::headerSource(header); });
    std::vector<lex::Token> toks;
    {
      TimedSpan span("lex.tokenize", tokenize_ms);
      toks = pp.tokenize(file);
    }
    tokens += toks.size();
    std::unique_ptr<ast::TranslationUnit> tu;
    {
      TimedSpan span("ast.parse", parse_ms);
      ast::Parser parser(std::move(toks), diags);
      tu = parser.parseTranslationUnit(name + ".c");
    }
    {
      TimedSpan span("sema.resolve", resolve_ms);
      sema::Sema sema(*tu, diags);
      if (!sema.run() || diags.hasErrors()) {
        throw std::runtime_error("fsbench: frontend failed on " + name);
      }
    }
    for (const ast::FunctionDecl* fn : tu->functions()) {
      if (fn == nullptr || !fn->isDefinition()) continue;
      ++functions;
      {
        TimedSpan span("cfg.build", cfg_ms);
        (void)cfg::Cfg::build(*fn);
      }
      TimedSpan span("taint.ir_compile", compile_ms);
      (void)taint::ir::compile(*fn);
    }
  }
  const std::string note = "frontend sub-pass over " + std::to_string(components.size()) +
                           " component(s), called directly";
  layers.set("lex.tokenize_ms", tokenize_ms, components.size(), note);
  layers.set("lex.tokens", static_cast<double>(tokens), components.size(), note);
  layers.set("ast.parse_ms", parse_ms, components.size(), note);
  layers.set("sema.resolve_ms", resolve_ms, components.size(), note);
  layers.set("cfg.build_ms", cfg_ms, functions, note);
  // ir::compile builds its own CFG; lowering alone is compile - build.
  layers.set("taint.ir_compile_ms", std::max(0.0, compile_ms - cfg_ms), functions,
             note + "; lowering = ir::compile - Cfg::build");
}

void table5SubPass(LayerMetrics& layers) {
  taint::AnalysisOptions topts;  // intra, the CLI default
  const extract::ExtractOptions eopts = corpus::extractOptions();
  TaintCounters counters;
  std::vector<double> component_ms;
  double get_ms = 0;
  double analyze_ms = 0;
  double extract_ms = 0;
  std::size_t deps = 0;
  std::size_t pairs = 0;
  {
    Span root("table5.subpass");
    for (const corpus::Scenario& scenario : corpus::scenarios()) {
      std::vector<std::unique_ptr<corpus::AnalyzedComponent>> analyzed;
      for (const auto& [component, functions] : scenario.selection) {
        auto t0 = Clock::now();
        std::unique_ptr<corpus::AnalyzedComponent> c;
        {
          Span span("corpus.component_get");
          c = std::make_unique<corpus::AnalyzedComponent>(component, topts);
        }
        auto t1 = Clock::now();
        {
          Span span("taint.analyze");
          c->analyze(functions);
        }
        const double a_ms = millisSince(t1);
        get_ms += millisBetween(t0, t1);
        analyze_ms += a_ms;
        component_ms.push_back(a_ms);
        counters.add(c->analyzer());
        analyzed.push_back(std::move(c));
        ++pairs;
      }
      std::vector<extract::ComponentRun> runs;
      for (const auto& c : analyzed) runs.push_back(c->asRun());
      const auto t2 = Clock::now();
      {
        Span span("extract.extract");
        deps += extract::extractDependencies(runs, eopts).size();
      }
      extract_ms += millisSince(t2);
    }
  }
  const std::string note = "Table 5 sub-pass (intra), " + std::to_string(pairs) + " pair(s)";
  layers.set("corpus.cache_get_ms", get_ms, pairs, note);
  layers.set("taint.analyze_ms", analyze_ms, pairs, note);
  layers.set("taint.component_ms_p95", percentile(component_ms, 95), component_ms.size(), note);
  layers.set("extract.extract_ms", extract_ms, corpus::scenarios().size(), note);
  layers.set("extract.deps", static_cast<double>(deps), corpus::scenarios().size(), note);
  counters.publish(layers, note);
}

void publishPoolMetrics(const std::string& section, const std::string& worker_span,
                        std::size_t jobs, LayerMetrics& layers) {
  const std::vector<SpanRecord> all = Tracer::global().spans();
  double busy_ratio_sum = 0;
  double tail_ms_sum = 0;
  std::size_t sections = 0;
  for (std::size_t s = 0; s < all.size(); ++s) {
    if (all[s].name != section) continue;
    std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> per_thread;  // busy, last end
    for (const SpanRecord& span : all) {
      if (span.parent != static_cast<std::int64_t>(s) || span.name != worker_span) continue;
      auto& [busy, last_end] = per_thread[span.thread];
      busy += span.end_ns - span.start_ns;
      last_end = std::max(last_end, span.end_ns);
    }
    if (per_thread.empty()) continue;
    std::uint64_t busy = 0;
    std::uint64_t first_done = UINT64_MAX;
    std::uint64_t last_done = 0;
    for (const auto& [thread, totals] : per_thread) {
      busy += totals.first;
      first_done = std::min(first_done, totals.second);
      last_done = std::max(last_done, totals.second);
    }
    const double wall = static_cast<double>(all[s].end_ns - all[s].start_ns);
    busy_ratio_sum += wall > 0 ? static_cast<double>(busy) / (wall * static_cast<double>(jobs)) : 0;
    tail_ms_sum += static_cast<double>(last_done - first_done) / 1e6;
    ++sections;
  }
  if (sections == 0) return;
  const std::string note = "per " + section + " span, mean over " + std::to_string(sections);
  layers.set("support.pool_busy_ratio", busy_ratio_sum / static_cast<double>(sections), sections,
             note);
  layers.set("support.pool_tail_ms", tail_ms_sum / static_cast<double>(sections), sections,
             note);
}

CacheTraffic CacheTraffic::now() {
  CacheTraffic t;
  t.hits = corpus::ComponentCache::global().hits();
  t.misses = corpus::ComponentCache::global().misses();
  t.waits = obs::Registry::global().counterSum("cache.waits");
  return t;
}

CacheTraffic CacheTraffic::minus(const CacheTraffic& since) const {
  CacheTraffic d;
  d.hits = hits - since.hits;
  d.misses = misses - since.misses;
  d.waits = waits - since.waits;
  return d;
}

void CacheTraffic::publish(LayerMetrics& layers, double per_ops, const std::string& note) const {
  const double ops = per_ops > 0 ? per_ops : 1;
  const auto n = static_cast<std::size_t>(ops);
  layers.set("corpus.cache_hits", static_cast<double>(hits) / ops, n, note);
  layers.set("corpus.cache_misses", static_cast<double>(misses) / ops, n, note);
  layers.set("corpus.cache_waits", static_cast<double>(waits) / ops, n, note);
}

}  // namespace fsbench
