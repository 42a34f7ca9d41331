// Golden digests of inter-procedural taint. Each digest is
// corpus::contentDigest over a canonical text rendering of what the
// analysis produced, recorded from the SCC-summary engine this
// repository shipped before the per-function worklist replaced it. Any
// change to the digests is a change in observable output: interned label
// ids in first-use order (id order is semantic — rendered sets ascend by
// id and extraction anchors on the smallest id), field-write bridges,
// write events, per-function return labels, first-discovery traces, and
// the extracted dependencies.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "corpus/amplify.h"
#include "corpus/disk_cache.h"
#include "corpus/pipeline.h"
#include "extract/extractor.h"
#include "json/json.h"
#include "model/serialization.h"
#include "taint/label.h"

namespace fsdep::corpus {
namespace {

taint::AnalysisOptions interOpts() {
  taint::AnalysisOptions options;
  options.inter_procedural = true;
  return options;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// Amplified names carry a per-process generation prefix
/// ("amp<generation>_<index>"); "amp<digits>_" becomes "amp_" so the
/// digest depends only on the corpus options.
std::string withoutGeneration(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    out.push_back(text[i]);
    if (text.compare(i, 3, "amp") != 0) continue;
    std::size_t j = i + 3;
    while (j < text.size() && text[j] >= '0' && text[j] <= '9') ++j;
    if (j > i + 3 && j < text.size() && text[j] == '_') {
      out += "mp";
      i = j - 1;  // resume at the '_'
    }
  }
  return out;
}

/// Canonical text of everything one analyzer run exposes.
std::string analyzerState(const taint::Analyzer& a) {
  const taint::LabelTable& labels = a.labels();
  std::string out = "labels\n";
  for (taint::LabelId id = 0; id < labels.size(); ++id) {
    out += std::to_string(id) + " " + labels.name(id) + "\n";
  }
  out += "fields\n";
  for (const auto& [key, set] : a.fieldWrites()) {
    out += key + " " + taint::labelSetToString(labels, set) + "\n";
  }
  out += "writes\n";
  std::set<std::string> objects;
  for (const taint::WriteEvent* w : a.writeEvents()) {
    out += std::to_string(w->loc.line) + ":" + std::to_string(w->loc.column) + " " + w->object +
           " op=" + std::to_string(static_cast<int>(w->op)) + " callee=" + w->rhs_callee + " " +
           taint::labelSetToString(labels, w->labels) + "\n";
    objects.insert(w->object);
  }
  out += "returns\n";
  for (const auto& result : a.results()) {
    out += result->fn->name + " " + taint::labelSetToString(labels, result->return_labels) + "\n";
  }
  out += "traces\n";
  for (const std::string& object : objects) {
    out += object + "\n";
    if (const auto* trace = a.traceFor(object)) {
      for (const taint::TraceStep& step : *trace) {
        out += "  " + std::to_string(step.loc.line) + ":" + std::to_string(step.loc.column) +
               " " + step.text + "\n";
      }
    }
  }
  return out;
}

std::string depsJson(const std::vector<model::Dependency>& deps) {
  return json::writePretty(model::toJson(deps));
}

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

TEST(InterGolden, SeedComponentAnalyzerState) {
  std::vector<std::string> names = componentNames();
  for (const std::string& n : xfsComponentNames()) names.push_back(n);
  for (const std::string& n : btrfsComponentNames()) names.push_back(n);
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
  for (const Scenario& s : scenarios()) runs.emplace_back(s, extractOptions());
  runs.emplace_back(xfsScenario(), xfsExtractOptions());
  runs.emplace_back(btrfsScenario(), btrfsExtractOptions());
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
  EXPECT_EQ(hex(contentDigest(withoutGeneration(state))), hex(kAmplifiedState));
  EXPECT_EQ(hex(contentDigest(withoutGeneration(depsJson(deps)))), hex(kAmplifiedDeps));
}

}  // namespace
}  // namespace fsdep::corpus
