// Kernel-scale benchmarks (google-benchmark): the inter-procedural
// worklist engine against intra-procedural analysis, on the seed corpus
// and on amplified corpora 10x and 100x its size. BM_Table5IntraSeed is the reference point for the scale
// guard in scripts/bench_compare.sh: inter-procedural analysis of the
// 100x amplified corpus must stay within 10x of an intra Table 5 run
// on the seed corpus (BENCH_scale.json).
//
// Amplified iterations time analysis + extraction only: generation and
// the parse-once ComponentCache fill happen in the warm-up, matching
// how the pipeline amortizes frontend cost everywhere else.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "corpus/amplify.h"
#include "corpus/pipeline.h"
#include "extract/extractor.h"
#include "support/thread_pool.h"

using namespace fsdep;

namespace {

taint::AnalysisOptions inter() {
  taint::AnalysisOptions topts;
  topts.inter_procedural = true;
  return topts;
}

void runTable5Bench(benchmark::State& state, const taint::AnalysisOptions& topts) {
  const corpus::PipelineOptions pipeline{.jobs = 4, .use_cache = true};
  benchmark::DoNotOptimize(corpus::runTable5(topts, nullptr, pipeline));  // warm cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(corpus::runTable5(topts, nullptr, pipeline));
  }
}

void BM_Table5IntraSeed(benchmark::State& state) { runTable5Bench(state, {}); }
BENCHMARK(BM_Table5IntraSeed)->Unit(benchmark::kMillisecond);

void BM_Table5InterSeed(benchmark::State& state) { runTable5Bench(state, inter()); }
BENCHMARK(BM_Table5InterSeed)->Unit(benchmark::kMillisecond);

/// Analyzes every amplified component (all functions) on the pool and
/// extracts dependencies over the whole synthetic ecosystem — the
/// `fsdep amplify` hot path.
std::size_t analyzeAmplified(const std::vector<std::string>& names,
                             const taint::AnalysisOptions& topts) {
  std::vector<std::unique_ptr<corpus::AnalyzedComponent>> components(names.size());
  ThreadPool::parallelFor(names.size(), 0, [&](std::size_t i) {
    auto component = std::make_unique<corpus::AnalyzedComponent>(names[i], topts);
    component->analyze({});
    components[i] = std::move(component);
  });
  std::vector<extract::ComponentRun> runs;
  runs.reserve(components.size());
  for (const auto& component : components) runs.push_back(component->asRun());
  return extract::extractDependencies(runs, corpus::amplifiedExtractOptions()).size();
}

void runAmplifiedBench(benchmark::State& state, const taint::AnalysisOptions& topts) {
  const corpus::AmplifyOptions aopts{.factor = static_cast<std::size_t>(state.range(0)),
                                     .seed = 42};
  const std::vector<std::string> names = corpus::amplifyCorpus(aopts);
  benchmark::DoNotOptimize(analyzeAmplified(names, topts));  // warm the parse cache
  std::size_t deps = 0;
  for (auto _ : state) {
    deps = analyzeAmplified(names, topts);
    benchmark::DoNotOptimize(deps);
  }
  state.counters["components"] = static_cast<double>(names.size());
  state.counters["deps"] = static_cast<double>(deps);
}

void BM_AmplifiedInter(benchmark::State& state) { runAmplifiedBench(state, inter()); }
BENCHMARK(BM_AmplifiedInter)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_AmplifiedIntra(benchmark::State& state) { runAmplifiedBench(state, {}); }
BENCHMARK(BM_AmplifiedIntra)->Arg(100)->Unit(benchmark::kMillisecond);

// Pure generation cost (registry rebuild included): the amplifier must
// never dominate the pipeline it feeds.
void BM_AmplifyGenerate(benchmark::State& state) {
  const std::size_t factor = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    // A fresh seed per iteration forces a real regeneration instead of
    // the same-options no-op path.
    benchmark::DoNotOptimize(corpus::amplifyCorpus({.factor = factor, .seed = seed++}));
  }
  corpus::clearAmplifiedCorpus();
}
BENCHMARK(BM_AmplifyGenerate)->Arg(100)->Unit(benchmark::kMillisecond);

}  // namespace

// The factor-1000 row (6000 generated components) takes minutes per
// iteration and several GiB of parsed ASTs, so it is opt-in: set
// FSDEP_BENCH_KERNEL_SCALE=1 to register it. One iteration is enough —
// the interesting number is the superlinearity against the factor-100
// row (see EXPERIMENTS.md, "Kernel scale"), not run-to-run noise.
int main(int argc, char** argv) {
  if (std::getenv("FSDEP_BENCH_KERNEL_SCALE") != nullptr) {
    benchmark::RegisterBenchmark(
        "BM_AmplifiedInter", [](benchmark::State& state) { runAmplifiedBench(state, inter()); })
        ->Arg(1000)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
