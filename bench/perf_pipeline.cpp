// Serial-vs-parallel pipeline benchmarks (google-benchmark).
//
// The baseline reproduces the seed pipeline exactly: one thread, no
// component cache, so every corpus component is re-lexed/re-parsed/
// re-resolved once per scenario (15 frontend runs per Table 5). The
// other configurations turn on the parse-once ComponentCache and the
// ThreadPool, separately and together, so the report attributes the
// speedup to each. scripts/bench_compare.sh runs this binary and emits
// BENCH_pipeline.json.
#include <benchmark/benchmark.h>

#include "corpus/pipeline.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

using namespace fsdep;

namespace {

void runTable5Bench(benchmark::State& state, std::size_t jobs, bool use_cache) {
  const corpus::PipelineOptions pipeline{.jobs = jobs, .use_cache = use_cache};
  if (use_cache) {
    // Warm the cache outside the timed region: the steady-state cost is
    // what Table 5 consumers see after the first scenario of a process.
    benchmark::DoNotOptimize(corpus::runTable5({}, nullptr, pipeline));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(corpus::runTable5({}, nullptr, pipeline));
  }
  state.counters["jobs"] = static_cast<double>(jobs);
  state.counters["cache"] = use_cache ? 1.0 : 0.0;
}

// The seed's behavior: serial, re-parse per scenario.
void BM_Table5SeedSerial(benchmark::State& state) { runTable5Bench(state, 1, false); }
BENCHMARK(BM_Table5SeedSerial)->Unit(benchmark::kMillisecond);

// Cache only (still one thread) — isolates the parse-once win.
void BM_Table5CachedSerial(benchmark::State& state) { runTable5Bench(state, 1, true); }
BENCHMARK(BM_Table5CachedSerial)->Unit(benchmark::kMillisecond);

// Cache + N workers — the default production configuration.
void BM_Table5Parallel(benchmark::State& state) {
  runTable5Bench(state, static_cast<std::size_t>(state.range(0)), true);
}
BENCHMARK(BM_Table5Parallel)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Parallel without the cache: thread scaling alone, for the report's
// attribution column (on a single-core container this tracks the seed).
void BM_Table5ParallelNoCache(benchmark::State& state) {
  runTable5Bench(state, static_cast<std::size_t>(state.range(0)), false);
}
BENCHMARK(BM_Table5ParallelNoCache)->Arg(4)->Unit(benchmark::kMillisecond);

// Observability overhead guard (scripts/bench_compare.sh asserts the
// pair stays within 3%). TracingOff is the production default: the
// instrumentation is compiled in but every Span degrades to one relaxed
// atomic load. TracingOn collects a full trace per iteration — the
// measurable *upper bound* on what the always-compiled-in hooks can
// cost, so the disabled overhead is strictly below whatever this shows.
void BM_Table5TracingOff(benchmark::State& state) { runTable5Bench(state, 2, true); }
BENCHMARK(BM_Table5TracingOff)->Unit(benchmark::kMillisecond);

void BM_Table5TracingOn(benchmark::State& state) {
  const corpus::PipelineOptions pipeline{.jobs = 2, .use_cache = true};
  benchmark::DoNotOptimize(corpus::runTable5({}, nullptr, pipeline));  // warm cache
  for (auto _ : state) {
    obs::Trace::start();
    benchmark::DoNotOptimize(corpus::runTable5({}, nullptr, pipeline));
    benchmark::DoNotOptimize(obs::Trace::stop());
  }
  state.counters["jobs"] = 2.0;
  state.counters["cache"] = 1.0;
}
BENCHMARK(BM_Table5TracingOn)->Unit(benchmark::kMillisecond);

// Profiling = tracing + span aggregation + render; bench_compare.sh
// holds this against BM_Table5TracingOff with the same 3% budget, so
// `--profile` costs what `--trace` costs plus an explicitly-guarded
// aggregation term.
void BM_Table5ProfilingOn(benchmark::State& state) {
  const corpus::PipelineOptions pipeline{.jobs = 2, .use_cache = true};
  benchmark::DoNotOptimize(corpus::runTable5({}, nullptr, pipeline));  // warm cache
  for (auto _ : state) {
    obs::Trace::start();
    benchmark::DoNotOptimize(corpus::runTable5({}, nullptr, pipeline));
    const std::vector<obs::TraceEvent> events = obs::Trace::stopEvents();
    const obs::Profile profile = obs::buildProfile(events, 1.0, "table5");
    benchmark::DoNotOptimize(obs::renderProfileText(profile));
  }
  state.counters["jobs"] = 2.0;
  state.counters["cache"] = 1.0;
}
BENCHMARK(BM_Table5ProfilingOn)->Unit(benchmark::kMillisecond);

// Single scenario, the interactive `fsdep extract --scenario` path.
void BM_ScenarioSeedVsCached(benchmark::State& state, bool use_cache) {
  const auto scenarios = corpus::scenarios();
  const corpus::Scenario& s3 = scenarios.at(2);
  const corpus::PipelineOptions pipeline{.jobs = 1, .use_cache = use_cache};
  if (use_cache) benchmark::DoNotOptimize(corpus::runScenario(s3, {}, nullptr, pipeline));
  for (auto _ : state) {
    benchmark::DoNotOptimize(corpus::runScenario(s3, {}, nullptr, pipeline));
  }
}
BENCHMARK_CAPTURE(BM_ScenarioSeedVsCached, seed, false)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioSeedVsCached, cached, true)->Unit(benchmark::kMillisecond);

// Extraction alone over one seed scenario's analyzed components, serial
// (jobs=1): the serial path of the phased extractor, which must cost no
// more than a single pass over the components did. Arg = scenario index.
void BM_ExtractSeedScenario(benchmark::State& state) {
  const auto scenarios = corpus::scenarios();
  const corpus::Scenario& scenario = scenarios.at(static_cast<std::size_t>(state.range(0)));
  std::vector<std::unique_ptr<corpus::AnalyzedComponent>> components;
  std::vector<extract::ComponentRun> runs;
  for (const auto& [component, functions] : scenario.selection) {
    components.push_back(
        std::make_unique<corpus::AnalyzedComponent>(component, taint::AnalysisOptions{}));
    components.back()->analyze(functions);
    runs.push_back(components.back()->asRun());
  }
  const extract::ExtractOptions options = corpus::extractOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract::extractDependencies(runs, options, 1));
  }
  state.SetLabel(scenario.id);
}
BENCHMARK(BM_ExtractSeedScenario)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
