// Golden digests of intra-procedural taint (the paper's prototype mode,
// the CLI default). Each digest is corpus::contentDigest over the
// canonical text of golden_digest.h, recorded from the analyzer that
// copied each block's entry state per visit and kept its per-run tables
// in std::map. The guard-query, factor-50 and counter digests were
// recorded from the analyzer that still answered Analyzer::labelsOf by
// walking the AST. Any change to a digest is a change in observable
// output.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/amplify.h"
#include "corpus/disk_cache.h"
#include "corpus/pipeline.h"
#include "extract/extractor.h"
#include "golden_digest.h"

namespace fsdep::corpus {
namespace {

using golden::analyzerState;
using golden::depsJson;
using golden::guardQueries;
using golden::hex;
using golden::runCounters;
using golden::withoutGeneration;

struct Golden {
  const char* name;
  std::uint64_t digest;
};

// Every Ext4, XFS and BtrFS seed component, all functions analyzed.
constexpr Golden kComponents[] = {
    {"mke2fs", 0x4285665fb958224cull},        {"mount", 0x6fc31f8bbeee4ecbull},
    {"ext4", 0x15011b4cc15bde14ull},          {"e4defrag", 0x03b68bd59f39ffbdull},
    {"resize2fs", 0x20c3676b1e9dec53ull},     {"e2fsck", 0x1c964104d143f081ull},
    {"mkfs_xfs", 0x5d27756f8ebd7f6cull},      {"xfs", 0x4ec0e8fe061fe385ull},
    {"xfs_growfs", 0x496f1e058e1afeb9ull},    {"mkfs_btrfs", 0x66ae3084996e0b0eull},
    {"btrfs", 0xc479708529a75492ull},         {"btrfs_balance", 0x6493c71cc6634916ull},
};

// Per-scenario dependency JSON (Ext4 s1..s4, then XFS and BtrFS).
constexpr Golden kScenarios[] = {
    {"s1", 0x0db734c503ae5e06ull},  {"s2", 0xd99f6a1a5a55515cull},
    {"s3", 0xa5868828754550e2ull},  {"s4", 0x9eab1180b16092ecull},
    {"xfs", 0x84a3f47139bacfe8ull}, {"btrfs", 0xf0957ed022f3f216ull},
};

// Factor 5, seed 42: every component's analyzer state (in corpus order)
// and the dependencies extracted over the whole ecosystem.
constexpr std::uint64_t kAmplifiedState = 0x406eb4fd550b272bull;
constexpr std::uint64_t kAmplifiedDeps = 0xb176c002923021a4ull;

// Guard queries (golden::guardQueries) of every seed component, in the
// order of kComponents, and of the factor-5 seed-42 corpus.
constexpr std::uint64_t kComponentQueries[] = {
    0x90fbf73519038023ull, 0x982c2f5be2683260ull, 0x4b5a9d3f4f741936ull,
    0x954dfe21f0670ef0ull, 0xd5816a443a6e9d3aull, 0xabf6bdf5bb18fdc0ull,
    0xe35f93884c694608ull, 0x0019f96f55900b6aull, 0x18a1fcf439c41546ull,
    0x5d75a1cc2f609426ull, 0x6dfd1442440ea8b9ull, 0xe77e415e47e0c517ull,
};
constexpr std::uint64_t kAmplifiedQueries = 0xbfe6680b260dc0b5ull;

// Factor 50, seed 42: analyzer state, dependencies, and the fixpoint
// counters read after extraction.
constexpr std::uint64_t kAmplified50State = 0x1d3e34d1b9d62e1cull;
constexpr std::uint64_t kAmplified50Deps = 0x3968060002fa5372ull;
constexpr std::uint64_t kAmplified50Counters = 0x59432975b9a5f94cull;

std::vector<std::string> seedComponentNames() {
  std::vector<std::string> names;
  for (const FileSystem& fs : fileSystems()) {
    for (const Component& component : fs.components) names.push_back(component.name);
  }
  return names;
}

TEST(IntraGolden, SeedComponentAnalyzerState) {
  const std::vector<std::string> names = seedComponentNames();
  ASSERT_EQ(names.size(), std::size(kComponents));
  for (std::size_t i = 0; i < names.size(); ++i) {
    AnalyzedComponent component(names[i], taint::AnalysisOptions{});
    component.analyze({});
    EXPECT_EQ(names[i], kComponents[i].name);
    EXPECT_EQ(hex(contentDigest(analyzerState(component.analyzer()))),
              hex(kComponents[i].digest))
        << names[i];
  }
}

TEST(IntraGolden, PerScenarioDependencies) {
  std::vector<std::pair<Scenario, extract::ExtractOptions>> runs;
  for (const FileSystem& fs : fileSystems()) {
    for (const Scenario& s : fs.scenarios) runs.emplace_back(s, extractOptions());
  }
  ASSERT_EQ(runs.size(), std::size(kScenarios));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [scenario, options] = runs[i];
    const PipelineOptions pipeline{.jobs = 1};
    const std::vector<model::Dependency> deps =
        runScenario(scenario, taint::AnalysisOptions{}, &options, pipeline);
    EXPECT_EQ(scenario.id, kScenarios[i].name);
    EXPECT_EQ(hex(contentDigest(depsJson(deps))), hex(kScenarios[i].digest)) << scenario.id;
  }
}

TEST(IntraGolden, AmplifiedCorpus) {
  const std::vector<std::string> names = amplifyCorpus({.factor = 5, .seed = 42});
  std::vector<std::unique_ptr<AnalyzedComponent>> components;
  components.reserve(names.size());
  std::string state;
  for (const std::string& name : names) {
    components.push_back(std::make_unique<AnalyzedComponent>(name, taint::AnalysisOptions{}));
    components.back()->analyze({});
    state += name + "\n" + analyzerState(components.back()->analyzer());
  }
  std::vector<extract::ComponentRun> runs;
  runs.reserve(components.size());
  for (const auto& component : components) runs.push_back(component->asRun());
  const std::vector<model::Dependency> deps =
      extract::extractDependencies(runs, amplifiedExtractOptions());
  EXPECT_EQ(hex(contentDigest(withoutGeneration(state))), hex(kAmplifiedState));
  EXPECT_EQ(hex(contentDigest(withoutGeneration(depsJson(deps)))), hex(kAmplifiedDeps));
}

TEST(IntraGolden, SeedComponentGuardQueries) {
  const std::vector<std::string> names = seedComponentNames();
  ASSERT_EQ(names.size(), std::size(kComponentQueries));
  for (std::size_t i = 0; i < names.size(); ++i) {
    AnalyzedComponent component(names[i], taint::AnalysisOptions{});
    component.analyze({});
    const std::string queries = guardQueries(component.analyzer(), component.semaRef(),
                                             extractOptions().error_functions);
    EXPECT_EQ(hex(contentDigest(queries)), hex(kComponentQueries[i])) << names[i];
  }
}

TEST(IntraGolden, AmplifiedGuardQueries) {
  const std::vector<std::string> names = amplifyCorpus({.factor = 5, .seed = 42});
  std::string queries;
  for (const std::string& name : names) {
    AnalyzedComponent component(name, taint::AnalysisOptions{});
    component.analyze({});
    queries += name + "\n" +
               guardQueries(component.analyzer(), component.semaRef(),
                            amplifiedExtractOptions().error_functions);
  }
  EXPECT_EQ(hex(contentDigest(withoutGeneration(queries))), hex(kAmplifiedQueries));
}

TEST(IntraGolden, AmplifiedCorpusFactor50) {
  const std::vector<std::string> names = amplifyCorpus({.factor = 50, .seed = 42});
  std::vector<std::unique_ptr<AnalyzedComponent>> components;
  components.reserve(names.size());
  std::string state;
  for (const std::string& name : names) {
    components.push_back(std::make_unique<AnalyzedComponent>(name, taint::AnalysisOptions{}));
    components.back()->analyze({});
    state += name + "\n" + analyzerState(components.back()->analyzer());
  }
  std::vector<extract::ComponentRun> runs;
  runs.reserve(components.size());
  for (const auto& component : components) runs.push_back(component->asRun());
  const std::vector<model::Dependency> deps =
      extract::extractDependencies(runs, amplifiedExtractOptions());
  std::string counters;
  for (const auto& component : components) counters += runCounters(component->analyzer());
  EXPECT_EQ(hex(contentDigest(withoutGeneration(state))), hex(kAmplified50State));
  EXPECT_EQ(hex(contentDigest(withoutGeneration(depsJson(deps)))), hex(kAmplified50Deps));
  EXPECT_EQ(hex(contentDigest(counters)), hex(kAmplified50Counters));
}

}  // namespace
}  // namespace fsdep::corpus
