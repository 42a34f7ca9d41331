// Golden digests of inter-procedural taint. Each digest is
// corpus::contentDigest over a canonical text rendering of what the
// analysis produced, recorded from the SCC-summary engine this
// repository shipped before the per-function worklist replaced it. Any
// change to the digests is a change in observable output: interned label
// ids in first-use order (id order is semantic — rendered sets ascend by
// id and extraction anchors on the smallest id), field-write bridges,
// write events, per-function return labels, first-discovery traces, and
// the extracted dependencies. The guard-query, counter and Table 5
// digests were recorded later, from the per-function worklist engine
// while it still answered Analyzer::labelsOf by walking the AST.
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

taint::AnalysisOptions interOpts() {
  taint::AnalysisOptions options;
  options.inter_procedural = true;
  return options;
}

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
    {"resize2fs", 0xf9a49712965c6056ull},     {"e2fsck", 0x1c964104d143f081ull},
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

// Factor 50, seed 42: every component's analyzer state (in corpus
// order) and the dependencies extracted over the whole ecosystem.
constexpr std::uint64_t kAmplifiedState = 0x3bbaba649b6b925cull;
constexpr std::uint64_t kAmplifiedDeps = 0x4d370a17567d8226ull;
// The fixpoint counters of the same run, read after extraction.
constexpr std::uint64_t kAmplifiedCounters = 0xde3a917887a96363ull;

// Guard queries (golden::guardQueries) of every seed component, in the
// order of kComponents, and of the factor-5 seed-42 corpus.
constexpr std::uint64_t kComponentQueries[] = {
    0xe10e02c816be48c3ull, 0x20454f764829a582ull, 0x6c9a8a396265b71aull,
    0x954dfe21f0670ef0ull, 0xe2fd01e1a0c64ef9ull, 0xaf99c3d7f4ed61c9ull,
    0xe35f93884c694608ull, 0xb21b6a04df23e846ull, 0x18a1fcf439c41546ull,
    0x5d75a1cc2f609426ull, 0x6dfd1442440ea8b9ull, 0xe77e415e47e0c517ull,
};
constexpr std::uint64_t kAmplifiedQueries = 0x47c4698e639c6184ull;

// Table 5 (runTable5, serial): the formatted table and the unique
// dependencies as JSON.
constexpr std::uint64_t kTable5Text = 0x9dbc613bfaec15e9ull;
constexpr std::uint64_t kTable5Deps = 0x7fe7b33177d53f6aull;

std::vector<std::string> seedComponentNames() {
  std::vector<std::string> names;
  for (const FileSystem& fs : fileSystems()) {
    for (const Component& component : fs.components) names.push_back(component.name);
  }
  return names;
}

TEST(InterGolden, SeedComponentAnalyzerState) {
  const std::vector<std::string> names = seedComponentNames();
  ASSERT_EQ(names.size(), std::size(kComponents));
  for (std::size_t i = 0; i < names.size(); ++i) {
    AnalyzedComponent component(names[i], interOpts());
    component.analyze({});
    EXPECT_EQ(names[i], kComponents[i].name);
    EXPECT_EQ(hex(contentDigest(analyzerState(component.analyzer()))),
              hex(kComponents[i].digest))
        << names[i];
  }
}

TEST(InterGolden, PerScenarioDependencies) {
  std::vector<std::pair<Scenario, extract::ExtractOptions>> runs;
  for (const FileSystem& fs : fileSystems()) {
    for (const Scenario& s : fs.scenarios) runs.emplace_back(s, extractOptions());
  }
  ASSERT_EQ(runs.size(), std::size(kScenarios));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& [scenario, options] = runs[i];
    const PipelineOptions pipeline{.jobs = 1};
    const std::vector<model::Dependency> deps =
        runScenario(scenario, interOpts(), &options, pipeline);
    EXPECT_EQ(scenario.id, kScenarios[i].name);
    EXPECT_EQ(hex(contentDigest(depsJson(deps))), hex(kScenarios[i].digest)) << scenario.id;
  }
}

TEST(InterGolden, AmplifiedCorpus) {
  const std::vector<std::string> names = amplifyCorpus({.factor = 50, .seed = 42});
  std::vector<std::unique_ptr<AnalyzedComponent>> components;
  components.reserve(names.size());
  std::string state;
  for (const std::string& name : names) {
    components.push_back(std::make_unique<AnalyzedComponent>(name, interOpts()));
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
  EXPECT_EQ(hex(contentDigest(withoutGeneration(state))), hex(kAmplifiedState));
  EXPECT_EQ(hex(contentDigest(withoutGeneration(depsJson(deps)))), hex(kAmplifiedDeps));
  EXPECT_EQ(hex(contentDigest(counters)), hex(kAmplifiedCounters));
}

TEST(InterGolden, SeedComponentGuardQueries) {
  const std::vector<std::string> names = seedComponentNames();
  ASSERT_EQ(names.size(), std::size(kComponentQueries));
  for (std::size_t i = 0; i < names.size(); ++i) {
    AnalyzedComponent component(names[i], interOpts());
    component.analyze({});
    const std::string queries = guardQueries(component.analyzer(), component.semaRef(),
                                             extractOptions().error_functions);
    EXPECT_EQ(hex(contentDigest(queries)), hex(kComponentQueries[i])) << names[i];
  }
}

TEST(InterGolden, AmplifiedGuardQueries) {
  const std::vector<std::string> names = amplifyCorpus({.factor = 5, .seed = 42});
  std::string queries;
  for (const std::string& name : names) {
    AnalyzedComponent component(name, interOpts());
    component.analyze({});
    queries += name + "\n" +
               guardQueries(component.analyzer(), component.semaRef(),
                            amplifiedExtractOptions().error_functions);
  }
  EXPECT_EQ(hex(contentDigest(withoutGeneration(queries))), hex(kAmplifiedQueries));
}

TEST(InterGolden, Table5) {
  const Table5Result table = runTable5(interOpts(), nullptr, {.jobs = 1});
  EXPECT_EQ(hex(contentDigest(formatTable5(table))), hex(kTable5Text));
  EXPECT_EQ(hex(contentDigest(depsJson(table.unique_deps))), hex(kTable5Deps));
}

}  // namespace
}  // namespace fsdep::corpus
