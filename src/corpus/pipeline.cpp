#include "corpus/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "json/json.h"
#include "model/serialization.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace fsdep::corpus {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsedNs(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

// All pipeline perf counters live in the obs metrics registry under the
// "pipeline." prefix — every mutation is a relaxed atomic add on a
// registered instrument, so concurrent pipeline runs and snapshots
// never race or tear (the seed's plain-uint64 aggregates did).
// Per-dimension series are labeled; --stats aggregates with counterSum.
obs::Registry& reg() { return obs::Registry::global(); }

std::size_t resolveJobs(const PipelineOptions& pipeline) {
  return pipeline.jobs == 0 ? ThreadPool::globalJobs() : pipeline.jobs;
}

// Disk-cache payloads are the scenario's dependency vector in the same
// JSON the CLI's --format=json emits (model::toJson), so the cache
// round-trips exactly the observable result. Dependency::evidence (a
// SourceRange) is not serialized — it is write-only downstream (never
// printed, scored, or exported), so a decoded vector is observationally
// identical to a freshly extracted one.
std::string encodeScenarioPayload(const std::vector<model::Dependency>& deps) {
  return json::writeCompact(model::toJson(deps));
}

std::optional<std::vector<model::Dependency>> decodeScenarioPayload(std::string_view payload) {
  Result<json::Value> parsed = json::parse(payload);
  if (!parsed.ok()) return std::nullopt;
  Result<std::vector<model::Dependency>> deps = model::dependenciesFromJson(parsed.value());
  if (!deps.ok()) return std::nullopt;
  return std::move(deps).take();
}

}  // namespace

CacheKey scenarioCacheKey(const Scenario& scenario,
                          const taint::AnalysisOptions& taint_options,
                          const extract::ExtractOptions& extract_options) {
  CacheKey key;
  key.mix("scenario-result");
  key.mix(scenario.id);
  key.mix(static_cast<std::uint64_t>(scenario.selection.size()));
  for (const auto& [component, functions] : scenario.selection) {
    key.mix(component);
    key.mix(contentDigest(componentSource(component)));
    key.mix(static_cast<std::uint64_t>(functions.size()));
    for (const std::string& fn : functions) key.mix(fn);
  }
  mixOptions(key, taint_options);
  mixOptions(key, extract_options);
  return key;
}

AnalyzedComponent::AnalyzedComponent(std::string name,
                                     const taint::AnalysisOptions& taint_options,
                                     bool use_cache) {
  {
    obs::Span span("pipeline", "component-get");
    if (use_cache) {
      bool built = false;
      entry_ = ComponentCache::global().get(name, &built);
      if (built) {
        reg().counter("pipeline.parse_ns", {{"component", name}, {"mode", "cached"}})
            .add(entry_->parse_ns);
      }
    } else {
      entry_ = ComponentCache::build(name);
      reg().counter("pipeline.parse_ns", {{"component", name}, {"mode", "fresh"}})
          .add(entry_->parse_ns);
    }
  }
  obs::Span span("pipeline", "analyzer-setup");
  analyzer_ = std::make_unique<taint::Analyzer>(*entry_->tu, *entry_->sema, taint_options);
  // Share the entry's Taint-IR memo: repeat analyses of a cached
  // component reuse the compiled instruction streams instead of
  // re-lowering (and re-building CFGs) per analyzer.
  analyzer_->setIrCache(entry_->ir_cache);
  for (const taint::Seed& seed : entry_->seeds) {
    analyzer_->addSeed(seed);
  }
}

void AnalyzedComponent::analyze(const std::vector<std::string>& function_names) {
  std::vector<const ast::FunctionDecl*> fns;
  for (const std::string& fn_name : function_names) {
    const ast::FunctionDecl* fn = entry_->tu->findFunction(fn_name);
    if (fn == nullptr || !fn->isDefinition()) {
      throw std::runtime_error("corpus: no function '" + fn_name + "' in " + entry_->name);
    }
    fns.push_back(fn);
  }
  const auto start = Clock::now();
  analyzer_->run(fns);
  obs::Span span("pipeline", "publish-metrics");
  const obs::Labels by_component{{"component", entry_->name}};
  reg().counter("pipeline.analyze_ns", by_component).add(elapsedNs(start));
  reg().counter("pipeline.components_analyzed", by_component).add(1);
  reg().counter("pipeline.merge_calls", by_component).add(analyzer_->mergeCalls());
  reg().counter("pipeline.merge_grew", by_component).add(analyzer_->mergeGrew());
  reg().counter("taint.stmt_visits", by_component).add(analyzer_->stmtVisits());
  reg().counter("taint.ir_instrs", by_component).add(analyzer_->irInstrs());
  reg().counter("taint.ir_visits", by_component).add(analyzer_->irVisits());
  reg().gauge("taint.arena_bytes", by_component)
      .set(static_cast<std::uint64_t>(analyzer_->arenaBytes()));
}

extract::ComponentRun AnalyzedComponent::asRun() const {
  extract::ComponentRun run;
  run.component = entry_->name;
  run.is_kernel = entry_->is_kernel;
  run.analyzer = analyzer_.get();
  run.sema = entry_->sema.get();
  return run;
}

std::vector<model::Dependency> extractComponents(
    const std::vector<std::unique_ptr<AnalyzedComponent>>& components,
    const extract::ExtractOptions& options, const std::string& scenario_id, std::size_t jobs) {
  obs::Span span("pipeline", "extract");
  span.arg("scenario", scenario_id);
  std::vector<extract::ComponentRun> runs;
  runs.reserve(components.size());
  for (const auto& component : components) runs.push_back(component->asRun());
  const auto start = Clock::now();
  std::vector<model::Dependency> deps = extract::extractDependencies(runs, options, jobs);
  const obs::Labels by_scenario{{"scenario", scenario_id}};
  reg().counter("pipeline.extract_ns", by_scenario).add(elapsedNs(start));
  reg().counter("pipeline.deps_extracted", by_scenario).add(deps.size());
  return deps;
}

std::vector<std::vector<model::Dependency>> runScenarios(
    const std::vector<Scenario>& scenarios, const taint::AnalysisOptions& taint_options,
    const extract::ExtractOptions* extract_override, const PipelineOptions& pipeline) {
  const std::size_t jobs = resolveJobs(pipeline);
  reg().gauge("pipeline.jobs").set(jobs);
  std::vector<extract::ExtractOptions> options(
      scenarios.size(), extract_override != nullptr ? *extract_override : extractOptions());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    options[s].metadata_owner = scenarios[s].metadata_owner;
  }

  // Warm path: an unchanged scenario loads its result straight from the
  // on-disk cache and contributes no (scenario x component) pairs — no
  // parse, sema, taint or extraction at all. A corrupt or undecodable
  // payload is a miss and degrades to a recompute (and the store below
  // overwrites the bad entry).
  DiskCache& disk = DiskCache::global();
  const bool disk_enabled = pipeline.use_disk_cache && disk.enabled();
  std::vector<CacheKey> keys(scenarios.size());
  std::vector<std::optional<std::vector<model::Dependency>>> results(scenarios.size());
  std::vector<std::size_t> todo;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    if (disk_enabled) {
      keys[s] = scenarioCacheKey(scenarios[s], taint_options, options[s]);
      disk.load(keys[s], [&](std::string_view payload) {
        results[s] = decodeScenarioPayload(payload);
        if (!results[s]) {
          FSDEP_LOG_WARN("cache", "disk cache: undecodable payload for scenario %s; recomputing",
                         scenarios[s].id.c_str());
        }
        return results[s].has_value();
      });
    }
    if (!results[s]) todo.push_back(s);
  }

  // Flatten the scenario x component matrix: every pair is independent,
  // so all of them can run concurrently — not just the components within
  // one scenario.
  struct Pair {
    std::size_t scenario;
    std::size_t slot;  ///< index within the scenario's selection order
    const std::string* component;
    const std::vector<std::string>* functions;
  };
  std::vector<Pair> pairs;
  std::vector<std::vector<std::unique_ptr<AnalyzedComponent>>> analyzed(scenarios.size());
  for (const std::size_t s : todo) {
    analyzed[s].resize(scenarios[s].selection.size());
    std::size_t slot = 0;
    for (const auto& [component, functions] : scenarios[s].selection) {
      pairs.push_back(Pair{s, slot++, &component, &functions});
    }
  }
  ThreadPool::parallelFor(pairs.size(), jobs, [&](std::size_t i) {
    const Pair& pair = pairs[i];
    obs::Span span("pipeline", "analyze");
    span.arg("scenario", scenarios[pair.scenario].id);
    span.arg("component", *pair.component);
    auto component = std::make_unique<AnalyzedComponent>(*pair.component, taint_options,
                                                         pipeline.use_cache);
    component->analyze(*pair.functions);
    analyzed[pair.scenario][pair.slot] = std::move(component);
  });

  // Extraction per scenario is independent of the others too. Nested in
  // this loop's body, each extraction runs serially; a loop over one
  // scenario runs inline, so that scenario's extraction gets the pool.
  ThreadPool::parallelFor(todo.size(), jobs, [&](std::size_t i) {
    const std::size_t s = todo[i];
    results[s] = extractComponents(analyzed[s], options[s], scenarios[s].id, jobs);
    if (disk_enabled) disk.store(keys[s], encodeScenarioPayload(*results[s]));
  });

  std::vector<std::vector<model::Dependency>> deps;
  deps.reserve(scenarios.size());
  for (auto& result : results) deps.push_back(*std::move(result));
  return deps;
}

std::vector<model::Dependency> runScenario(const Scenario& scenario,
                                           const taint::AnalysisOptions& taint_options,
                                           const extract::ExtractOptions* extract_override,
                                           const PipelineOptions& pipeline) {
  return std::move(runScenarios({scenario}, taint_options, extract_override, pipeline).front());
}

Table5Result runTable5(const taint::AnalysisOptions& taint_options,
                       const extract::ExtractOptions* extract_override,
                       const PipelineOptions& pipeline) {
  obs::Span table5_span("pipeline", "table5");
  table5_span.arg("jobs", static_cast<std::uint64_t>(resolveJobs(pipeline)));
  const std::vector<Scenario> scenario_list = scenarios();
  std::vector<std::vector<model::Dependency>> per_scenario_deps =
      runScenarios(scenario_list, taint_options, extract_override, pipeline);

  Table5Result result;
  std::vector<std::string> scenario_ids;
  for (const Scenario& scenario : scenario_list) scenario_ids.push_back(scenario.id);
  result.unique_deps = extract::dedupeAcrossScenarios(per_scenario_deps);
  result.unique_score = extract::scoreUnique(per_scenario_deps, scenario_ids, groundTruth());
  for (std::size_t s = 0; s < scenario_list.size(); ++s) {
    extract::ScenarioScore score =
        extract::scoreScenario(scenario_ids[s], per_scenario_deps[s], groundTruth());
    result.per_scenario.push_back({scenario_ids[s], scenario_list[s].title,
                                   std::move(per_scenario_deps[s]), std::move(score)});
  }
  return result;
}

std::string formatPipelineStats() {
  const obs::Registry& registry = reg();
  const auto sum = [&registry](std::string_view name) {
    return static_cast<unsigned long long>(registry.counterSum(name));
  };
  const auto ms = [&sum](std::string_view name) { return static_cast<double>(sum(name)) / 1e6; };
  // The worker count of the most recent run; 1 before any run.
  const unsigned long long jobs = std::max<std::uint64_t>(registry.gaugeValue("pipeline.jobs"), 1);
  const unsigned long long merge_calls = sum("pipeline.merge_calls");
  const unsigned long long merge_grew = sum("pipeline.merge_grew");
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "pipeline stats: jobs=%llu\n"
                "  parse    %9.2f ms  (cache: %llu hits, %llu misses)\n"
                "  analyze  %9.2f ms  (%llu component runs)\n"
                "  extract  %9.2f ms\n"
                "  merges   %llu calls, %llu grew (%.1f%% productive)\n",
                jobs, ms("pipeline.parse_ns"),
                sum("cache.hits"), sum("cache.misses"), ms("pipeline.analyze_ns"),
                sum("pipeline.components_analyzed"), ms("pipeline.extract_ns"), merge_calls,
                merge_grew,
                merge_calls > 0
                    ? 100.0 * static_cast<double>(merge_grew) / static_cast<double>(merge_calls)
                    : 0.0);
  return buf;
}

namespace {

std::string fpCell(const extract::LevelScore& level) {
  if (level.extracted == 0) return "-";
  if (level.false_positives == 0) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d (%s)", level.false_positives,
                formatPercent(static_cast<double>(level.false_positives) /
                              static_cast<double>(level.extracted))
                    .c_str());
  return buf;
}

void appendRow(std::string& out, const std::string& title, const extract::ScenarioScore& score) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-48s | %3d %-10s | %3d %-10s | %3d %-10s\n", title.c_str(),
                score.sd.extracted, fpCell(score.sd).c_str(), score.cpd.extracted,
                fpCell(score.cpd).c_str(), score.ccd.extracted, fpCell(score.ccd).c_str());
  out += buf;
}

}  // namespace

std::string formatTable5(const Table5Result& result) {
  std::string out;
  out +=
      "Table 5: Evaluation Results of Extracting Multi-Level Configuration Dependencies\n";
  out += std::string(48, ' ') +
         " |  SD  FP        | CPD  FP        | CCD  FP\n";
  out += std::string(120, '-') + "\n";
  for (const ScenarioResult& sr : result.per_scenario) {
    appendRow(out, sr.title, sr.score);
  }
  out += std::string(120, '-') + "\n";
  appendRow(out, "Total Unique", result.unique_score);
  const int total = result.unique_score.totalExtracted();
  const int fps = result.unique_score.totalFalsePositives();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Overall: %d unique dependencies, %d false positives (%s)\n", total, fps,
                formatPercent(total > 0 ? static_cast<double>(fps) / total : 0.0).c_str());
  out += buf;
  return out;
}

}  // namespace fsdep::corpus
