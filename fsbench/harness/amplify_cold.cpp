// amplify-cold: the one-shot kernel-scale extraction a user pays for.
//
// Set-up generates the amplified corpus (factor 100 -> 600 components,
// seeded). One operation ("pass") clears the process-wide
// ComponentCache, runs frontend + taint (SCC-summary inter engine) for
// every component across the thread pool, then extracts dependencies
// with the amplified ecosystem's options. No disk cache.
//
// Checks: every pass's dependency digest equals the first pass's, and
// the seed-42 corpus reproduces the digest and count recorded below.
#include <memory>

#include "corpus/amplify.h"
#include "corpus/pipeline.h"
#include "model/serialization.h"
#include "support/thread_pool.h"
#include "workloads.h"

namespace fsbench {

using namespace fsdep;

namespace {

constexpr std::size_t kFactor = 100;
constexpr std::uint64_t kReferenceSeed = 42;
/// Recorded from the fsdep commit this benchmark was defined on.
constexpr std::size_t kReferenceDeps = 2587;
constexpr std::uint64_t kReferenceDigest = 0x6f7cc2ec952b3e57ull;
/// amplifyCorpus takes a few ms; each setup_s sample averages this many.
constexpr std::size_t kSetupsPerSample = 10;

struct PassOutcome {
  double ms = 0;
  double cpu_ms = 0;
  std::uint64_t digest = 0;
  std::size_t deps = 0;
  TaintCounters counters;
};

taint::AnalysisOptions passOptions() {
  taint::AnalysisOptions topts;
  topts.inter_procedural = true;  // fsdep amplify's default engine
  return topts;
}

PassOutcome runPass(const std::vector<std::string>& names, std::size_t jobs, std::uint64_t op) {
  const taint::AnalysisOptions topts = passOptions();
  std::vector<std::unique_ptr<corpus::AnalyzedComponent>> components(names.size());
  std::vector<model::Dependency> deps;
  corpus::ComponentCache::global().clear();
  const double cpu_start = processCpuSeconds();
  const auto start = Clock::now();
  {
    Span pass("amplify.pass", op);
    {
      Span analyze("amplify.analyze", op);
      const std::int64_t parent = analyze.id();
      ThreadPool::parallelFor(names.size(), jobs, [&](std::size_t i) {
        Span worker("amplify.component", op, parent);
        std::unique_ptr<corpus::AnalyzedComponent> component;
        {
          Span get("corpus.component_get", op);
          component = std::make_unique<corpus::AnalyzedComponent>(names[i], topts);
        }
        {
          Span run("taint.analyze", op);
          component->analyze({});
        }
        components[i] = std::move(component);
      });
    }
    std::vector<extract::ComponentRun> runs;
    runs.reserve(components.size());
    for (const auto& component : components) runs.push_back(component->asRun());
    Span extract_span("extract.extract", op);
    deps = extract::extractDependencies(runs, corpus::amplifiedExtractOptions());
  }
  PassOutcome out;
  out.ms = millisSince(start);
  out.cpu_ms = (processCpuSeconds() - cpu_start) * 1000;
  out.digest = dependencyDigest(deps);
  out.deps = deps.size();
  for (const auto& component : components) out.counters.add(component->analyzer());
  return out;
}

}  // namespace

std::uint64_t dependencyDigest(const std::vector<model::Dependency>& deps) {
  // Amplified component names carry a per-process generation prefix
  // ("amp<generation>_<index>"); drop the generation so the digest only
  // depends on the corpus options.
  const std::string text = json::writeCompact(model::toJson(deps));
  std::string normalized;
  normalized.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    normalized.push_back(text[i]);
    if (text.compare(i, 3, "amp") != 0) continue;
    std::size_t j = i + 3;
    while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
    if (j > i + 3 && j < text.size() && text[j] == '_') {
      normalized += "mp";
      i = j - 1;  // resume at the '_'
    }
  }
  return fnv1a(normalized);
}

void runAmplifyCold(const RunConfig& config, RunResult& result) {
  Tracer& tracer = Tracer::global();
  Window window;
  std::vector<std::string> names;
  timeSetups(config, kSetupsPerSample, [&] {
    corpus::clearAmplifiedCorpus();
    tracer.setEnabled(config.trace);
    const auto start = Clock::now();
    {
      Span span("corpus.generate");
      names = corpus::amplifyCorpus({kFactor, config.seed});
    }
    const double seconds = secondsBetween(start, Clock::now());
    tracer.setEnabled(false);
    return seconds;
  }, window);
  Report::fact("corpus", std::to_string(names.size()) + " components (factor " +
                             std::to_string(kFactor) + ", seed " + std::to_string(config.seed) +
                             "), inter engine, " + std::to_string(config.jobs) + " worker(s)");

  // The measured window. A traced run spends its first half untraced and
  // its second half traced, so the tracing overhead comes out of one
  // process.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::uint64_t first_digest = 0;
  std::size_t first_deps = 0;
  PassOutcome last;
  CacheTraffic traced_cache_before;
  const double steal_start = stolenCpuSeconds();
  const auto window_start = Clock::now();
  const double half = config.seconds / 2;
  for (std::uint64_t op = 0;; ++op) {
    const double elapsed = secondsBetween(window_start, Clock::now());
    if (elapsed >= config.seconds && op >= 2) break;
    const bool traced = config.trace && elapsed >= half;
    if (traced && !tracer.enabled()) {
      traced_cache_before = CacheTraffic::now();
      tracer.setEnabled(true);
    }
    ++result.attempted;
    try {
      last = runPass(names, config.jobs, op);
    } catch (const std::exception& e) {
      ++result.failed;
      std::printf("pass %llu failed: %s\n", static_cast<unsigned long long>(op), e.what());
      continue;
    }
    if (result.attempted == 1) {
      first_digest = last.digest;
      first_deps = last.deps;
    } else if (last.digest != first_digest || last.deps != first_deps) {
      ++result.failed;
      std::printf("pass %llu: digest %s (%zu deps) differs from the first pass\n",
                  static_cast<unsigned long long>(op), hex64(last.digest).c_str(), last.deps);
    }
    (traced ? traced_ms : untraced_ms).push_back(last.ms);
    window.op_ms.push_back(last.ms);
    window.op_cpu_ms.push_back(last.cpu_ms);
    window.computed_ms.push_back(last.ms);
    window.items += names.size();
    window.busy_s += last.ms / 1000;
  }
  tracer.setEnabled(false);
  const double rss = peakRssMb();
  window.stolen_s = stolenCpuSeconds() - steal_start;
  const CacheTraffic traced_cache = CacheTraffic::now().minus(traced_cache_before);
  result.check(result.failed == 0, "every pass reproduces the first pass's dependencies (" +
                                       std::to_string(first_deps) + " deps, digest " +
                                       hex64(first_digest) + ")");

  if (!config.trace) {
    reportEndToEnd(window, rss,
                   {"components_per_s", "pass_ms_p50", "pass_ms", "every pass computes"},
                   result);
  } else {
    LayerMetrics layers;
    tracer.setEnabled(true);
    frontendSubPass(names, layers);
    tracer.setEnabled(false);
    const double passes = static_cast<double>(tracer.durationsOf("amplify.pass").size());
    const std::map<std::string, double> self = tracer.selfMillisByName();
    const auto per_pass = [&](const char* span) {
      const auto it = self.find(span);
      return it == self.end() || passes == 0 ? 0.0 : it->second / passes;
    };
    const std::string note = "self time per traced pass, summed over workers";
    layers.set("corpus.cache_get_ms", per_pass("corpus.component_get"), traced_ms.size(),
               note + "; AnalyzedComponent construction (ComponentCache::get + build)");
    layers.set("taint.analyze_ms", per_pass("taint.analyze"), traced_ms.size(), note);
    layers.set("taint.component_ms_p95", percentile(tracer.durationsOf("taint.analyze"), 95),
               tracer.durationsOf("taint.analyze").size(), "per-component Analyzer::run");
    layers.set("extract.extract_ms", per_pass("extract.extract"), traced_ms.size(), note);
    layers.set("extract.deps", static_cast<double>(last.deps), 1, "last pass");
    layers.set("corpus.generate_ms", window.setup_s.front() * 1000, 1,
               "amplifyCorpus in set-up (traced, once)");
    last.counters.publish(layers, "last pass, summed over components");
    traced_cache.publish(layers, passes, "per traced pass");
    publishPoolMetrics("amplify.analyze", "amplify.component", config.jobs, layers);
    reportTraceOverhead(untraced_ms, traced_ms, config, layers);
    layers.emit(result.report);
  }

  // The recorded reference: the seed-42 corpus must give the digest and
  // count this benchmark was defined with.
  std::uint64_t ref_digest = first_digest;
  std::size_t ref_deps = first_deps;
  if (config.seed != kReferenceSeed) {
    corpus::clearAmplifiedCorpus();
    const PassOutcome ref = runPass(corpus::amplifyCorpus({kFactor, kReferenceSeed}),
                                    config.jobs, 0);
    ref_digest = ref.digest;
    ref_deps = ref.deps;
  }
  result.check(ref_deps == kReferenceDeps && ref_digest == kReferenceDigest,
               "seed-42 reference: " + std::to_string(ref_deps) + " deps, digest " +
                   hex64(ref_digest) + " (recorded " + std::to_string(kReferenceDeps) + ", " +
                   hex64(kReferenceDigest) + ")");
}

}  // namespace fsbench
