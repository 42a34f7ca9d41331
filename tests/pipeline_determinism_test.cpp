// Serial and parallel pipeline runs must be indistinguishable: the same
// dependencies, the same scores, byte-identical JSON — across repeated
// runs (the work-stealing order is nondeterministic; the results must
// not be).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/amplify.h"
#include "corpus/pipeline.h"
#include "json/json.h"
#include "model/serialization.h"
#include "obs/metrics.h"
#include "support/thread_pool.h"

namespace fsdep::corpus {
namespace {

std::string table5Json(const PipelineOptions& pipeline,
                       const taint::AnalysisOptions& taint_options = {}) {
  const Table5Result result = runTable5(taint_options, nullptr, pipeline);
  json::Value value = model::toJson(result.unique_deps);
  return json::writePretty(value);
}

TEST(PipelineDeterminism, SerialAndParallelTable5AreByteIdentical) {
  const PipelineOptions serial{.jobs = 1, .use_cache = true};
  const PipelineOptions parallel{.jobs = 4, .use_cache = true};

  const std::string reference = table5Json(serial);
  ASSERT_FALSE(reference.empty());

  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(table5Json(serial), reference) << "serial run " << run;
    EXPECT_EQ(table5Json(parallel), reference) << "parallel run " << run;
  }
}

TEST(PipelineDeterminism, InterProceduralSerialAndParallelAreByteIdentical) {
  // The inter-procedural worklist must be just as schedule-independent
  // as the intra engine: per-component analyses race on the pool, but
  // the worklist inside each analyzer is single-threaded and the
  // extraction order is fixed.
  taint::AnalysisOptions inter;
  inter.inter_procedural = true;
  const PipelineOptions serial{.jobs = 1, .use_cache = true};
  const PipelineOptions parallel{.jobs = 4, .use_cache = true};

  const std::string reference = table5Json(serial, inter);
  ASSERT_FALSE(reference.empty());

  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(table5Json(serial, inter), reference) << "serial run " << run;
    EXPECT_EQ(table5Json(parallel, inter), reference) << "parallel run " << run;
  }
}

TEST(PipelineDeterminism, CachedAndUncachedPipelinesAgree) {
  const PipelineOptions cached{.jobs = 1, .use_cache = true};
  const PipelineOptions uncached{.jobs = 1, .use_cache = false};  // the seed's exact behavior
  EXPECT_EQ(table5Json(cached), table5Json(uncached));
}

TEST(PipelineDeterminism, FormattedTableMatchesAcrossModes) {
  const Table5Result serial = runTable5({}, nullptr, {.jobs = 1, .use_cache = true});
  const Table5Result parallel = runTable5({}, nullptr, {.jobs = 4, .use_cache = true});
  EXPECT_EQ(formatTable5(serial), formatTable5(parallel));
  ASSERT_EQ(serial.per_scenario.size(), parallel.per_scenario.size());
  for (std::size_t i = 0; i < serial.per_scenario.size(); ++i) {
    EXPECT_EQ(serial.per_scenario[i].deps.size(), parallel.per_scenario[i].deps.size());
    EXPECT_EQ(serial.per_scenario[i].score.totalExtracted(),
              parallel.per_scenario[i].score.totalExtracted());
    EXPECT_EQ(serial.per_scenario[i].score.totalFalsePositives(),
              parallel.per_scenario[i].score.totalFalsePositives());
  }
}

TEST(PipelineDeterminism, ScenarioRunsAreIdenticalAcrossJobCounts) {
  const auto scenario_list = scenarios();
  for (const Scenario& s : scenario_list) {
    const auto serial = runScenario(s, {}, nullptr, {.jobs = 1});
    const auto parallel = runScenario(s, {}, nullptr, {.jobs = 4});
    json::Value a = model::toJson(serial);
    json::Value b = model::toJson(parallel);
    EXPECT_EQ(json::writePretty(a), json::writePretty(b)) << "scenario " << s.id;
  }
}

TEST(PipelineDeterminism, AllScenariosRunTogetherAreIdenticalAcrossJobCounts) {
  // The flattened (scenario x component) matrix of every file system's
  // scenarios, as `extract --scenario all` and Table 5 run it.
  std::vector<Scenario> all;
  for (const FileSystem& fs : fileSystems()) {
    all.insert(all.end(), fs.scenarios.begin(), fs.scenarios.end());
  }
  ASSERT_GT(all.size(), 4u);  // more than Table 5 runs
  const auto render = [&](std::size_t jobs) {
    std::string out;
    for (const auto& deps : runScenarios(all, {}, nullptr, {.jobs = jobs})) {
      out += json::writeCompact(model::toJson(deps)) + "\n";
    }
    return out;
  };
  const std::string reference = render(1);
  for (int run = 0; run < 3; ++run) EXPECT_EQ(render(4), reference) << "run " << run;
  std::string one_by_one;
  for (const Scenario& s : all) {
    const std::vector<model::Dependency> deps = runScenario(s, {}, nullptr, {.jobs = 1});
    one_by_one += json::writeCompact(model::toJson(deps)) + "\n";
  }
  EXPECT_EQ(one_by_one, reference);
}

/// Analyzed components and their runs, ready for extractDependencies.
struct AnalyzedRuns {
  std::vector<std::unique_ptr<AnalyzedComponent>> components;
  std::vector<extract::ComponentRun> runs;
};

AnalyzedRuns analyzeAll(const std::vector<std::pair<std::string, std::vector<std::string>>>& work,
                        const taint::AnalysisOptions& taint_options) {
  AnalyzedRuns out;
  out.components.resize(work.size());
  ThreadPool::parallelFor(work.size(), 4, [&](std::size_t i) {
    auto component = std::make_unique<AnalyzedComponent>(work[i].first, taint_options);
    component->analyze(work[i].second);
    out.components[i] = std::move(component);
  });
  for (const auto& component : out.components) out.runs.push_back(component->asRun());
  return out;
}

std::string extractJson(const AnalyzedRuns& analyzed, const extract::ExtractOptions& options,
                        std::size_t jobs) {
  return json::writeCompact(
      model::toJson(extract::extractDependencies(analyzed.runs, options, jobs)));
}

/// The phased extractor's contract: jobs 1, 2 and 4 give the same bytes,
/// run after run.
void expectIdenticalAcrossJobCounts(const AnalyzedRuns& analyzed,
                                    const extract::ExtractOptions& options,
                                    const std::string& what) {
  const std::string reference = extractJson(analyzed, options, 1);
  ASSERT_GT(reference.size(), 2u) << what;  // more than "[]"
  for (const std::size_t jobs : {1, 2, 4}) {
    for (int run = 0; run < 3; ++run) {
      EXPECT_EQ(extractJson(analyzed, options, jobs), reference)
          << what << ", jobs " << jobs << ", run " << run;
    }
  }
}

class AmplifiedExtraction : public ::testing::TestWithParam<bool> {};

TEST_P(AmplifiedExtraction, IdenticalAtEveryJobCount) {
  taint::AnalysisOptions taint_options;
  taint_options.inter_procedural = GetParam();
  std::vector<std::pair<std::string, std::vector<std::string>>> work;
  for (std::string& name : amplifyCorpus({.factor = 50, .seed = 42})) {
    work.emplace_back(std::move(name), std::vector<std::string>{});
  }
  const AnalyzedRuns analyzed = analyzeAll(work, taint_options);
  expectIdenticalAcrossJobCounts(analyzed, amplifiedExtractOptions(),
                                 GetParam() ? "amplified, inter" : "amplified, intra");
}

INSTANTIATE_TEST_SUITE_P(Engines, AmplifiedExtraction, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Inter" : "Intra";
                         });

TEST(PipelineDeterminism, SeedScenarioExtractionIsIdenticalAtEveryJobCount) {
  for (const Scenario& scenario : scenarios()) {
    const std::vector<std::pair<std::string, std::vector<std::string>>> work(
        scenario.selection.begin(), scenario.selection.end());
    const AnalyzedRuns analyzed = analyzeAll(work, {});
    expectIdenticalAcrossJobCounts(analyzed, extractOptions(), "scenario " + scenario.id);
  }
}

// The compiled programs live in a shared per-component cache that pool
// workers hit concurrently; results must not depend on the worker count
// or on which run compiled the streams (serial ≡ parallel, ×3).
TEST(IrEquivalence, SerialEqualsParallelTimesThree) {
  taint::AnalysisOptions inter;
  inter.inter_procedural = true;
  const Table5Result serial = runTable5(inter, nullptr, {.jobs = 1});
  const std::string expected = formatTable5(serial);
  const std::string expected_deps = json::writePretty(model::toJson(serial.unique_deps));
  for (int round = 0; round < 3; ++round) {
    const Table5Result parallel = runTable5(inter, nullptr, {.jobs = 4});
    EXPECT_EQ(formatTable5(parallel), expected) << "round " << round;
    EXPECT_EQ(json::writePretty(model::toJson(parallel.unique_deps)), expected_deps)
        << "round " << round;
  }
}

// --stats renders the registry's pipeline.* series; a run adds to them
// (read as deltas: every run of the process counts) and a registry
// reset of the prefix zeroes them.
TEST(PipelineStatsApi, CountersAccumulateAndReset) {
  obs::Registry& registry = obs::Registry::global();
  const auto sum = [&registry](const char* name) { return registry.counterSum(name); };
  const std::uint64_t analyze_ns = sum("pipeline.analyze_ns");
  const std::uint64_t components = sum("pipeline.components_analyzed");
  const std::uint64_t merge_calls = sum("pipeline.merge_calls");
  const std::uint64_t merge_grew = sum("pipeline.merge_grew");
  (void)runTable5({}, nullptr, {.jobs = 2});
  EXPECT_GT(sum("pipeline.analyze_ns"), analyze_ns);
  EXPECT_GT(sum("pipeline.components_analyzed"), components);
  EXPECT_GT(sum("pipeline.merge_calls"), merge_calls);
  EXPECT_GE(sum("pipeline.merge_calls") - merge_calls, sum("pipeline.merge_grew") - merge_grew);
  EXPECT_EQ(registry.gaugeValue("pipeline.jobs"), 2u);
  const std::string text = formatPipelineStats();
  EXPECT_EQ(text.rfind("pipeline stats: jobs=2\n", 0), 0u) << text;
  EXPECT_NE(text.find("(" + std::to_string(sum("pipeline.components_analyzed")) +
                      " component runs)"),
            std::string::npos)
      << text;

  registry.reset("pipeline.");
  EXPECT_EQ(sum("pipeline.analyze_ns"), 0u);
  EXPECT_EQ(sum("pipeline.components_analyzed"), 0u);
  EXPECT_EQ(sum("pipeline.merge_calls"), 0u);
  EXPECT_NE(formatPipelineStats().find("(0 component runs)"), std::string::npos);
}

}  // namespace
}  // namespace fsdep::corpus
