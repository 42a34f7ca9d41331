// Golden digests of intra-procedural taint (the paper's prototype mode,
// the CLI default). Each digest is corpus::contentDigest over the
// canonical text of golden_digest.h, recorded from the analyzer that
// copied each block's entry state per visit and kept its per-run tables
// in std::map. Any change to a digest is a change in observable output.
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
using golden::hex;
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

TEST(IntraGolden, SeedComponentAnalyzerState) {
  std::vector<std::string> names = componentNames();
  for (const std::string& n : xfsComponentNames()) names.push_back(n);
  for (const std::string& n : btrfsComponentNames()) names.push_back(n);
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
  for (const Scenario& s : scenarios()) runs.emplace_back(s, extractOptions());
  runs.emplace_back(xfsScenario(), xfsExtractOptions());
  runs.emplace_back(btrfsScenario(), btrfsExtractOptions());
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

}  // namespace
}  // namespace fsdep::corpus
