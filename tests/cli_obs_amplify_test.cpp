// Observability under the amplified corpus: running `fsdep amplify`
// with tracing, metrics and profiling enabled must not perturb its
// stdout, in both taint engine modes. Timing lines vary run to run, so
// the comparison strips them; everything else (counts, dependency
// totals, engine name) must match byte for byte. The profile must split
// extraction into its phases, and --stats must see the extraction time
// and the worker count.
// check_sanitize.sh also runs this binary under TSan — the amplified run
// is the most thread-hostile workload the obs layer sees.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "json/json.h"

namespace fsdep {
namespace {

std::string tempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Runs the CLI and returns its stdout, or its stderr when `stream` is
/// "stderr" (stdout is then discarded).
std::string runCli(const std::string& args, const std::string& stream = "stdout") {
  const std::string command = std::string(FSDEP_CLI_PATH) + " " + args +
                              (stream == "stderr" ? " 2>&1 >/dev/null" : " 2>/dev/null");
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  std::string out;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) out.append(buffer, n);
  const int status = pclose(pipe);
  EXPECT_EQ(status, 0) << command << "\n" << out;
  return out;
}

/// Drops the wall-clock timing lines ("generate X ms, ...") — the only
/// run-varying part of amplify's text output.
std::string withoutTimings(const std::string& text) {
  std::stringstream in(text);
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find(" ms") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

class CliObsAmplify : public ::testing::TestWithParam<const char*> {};

TEST_P(CliObsAmplify, InstrumentationKeepsStdoutIdentical) {
  const std::string mode = GetParam();
  const std::string base = "amplify --factor 50 --seed 42 " + mode;
  const std::string trace = tempPath(("amplify_trace_" + mode.substr(2) + ".json").c_str());
  const std::string metrics =
      tempPath(("amplify_metrics_" + mode.substr(2) + ".json").c_str());
  const std::string profile =
      tempPath(("amplify_profile_" + mode.substr(2) + ".json").c_str());

  const std::string plain = runCli(base);
  const std::string instrumented = runCli(base + " --trace " + trace + " --metrics " +
                                          metrics + " --profile " + profile +
                                          " --profile-format json");

  EXPECT_EQ(withoutTimings(plain), withoutTimings(instrumented));
  // Sanity: the run actually analyzed the amplified corpus.
  EXPECT_NE(plain.find("components:   300"), std::string::npos) << plain;

  // The profile attributes extraction to its two pool phases and the merge.
  std::ifstream in(profile);
  std::stringstream text;
  text << in.rdbuf();
  const Result<json::Value> parsed = json::parse(text.str());
  ASSERT_TRUE(parsed.ok()) << profile;
  std::set<std::string> spans;
  const auto collect = [&spans](const json::Value& node, const auto& self) -> void {
    const json::Object& object = node.asObject();
    if (const json::Value* category = object.find("category")) {
      spans.insert(category->asString() + "/" + object.find("name")->asString());
    }
    if (const json::Value* children = object.find("children")) {
      for (const json::Value& child : children->asArray()) self(child, self);
    }
  };
  collect(*parsed.value().asObject().find("root"), collect);
  for (const char* span : {"extract/writers", "extract/component", "extract/merge"}) {
    EXPECT_TRUE(spans.contains(span)) << span << " missing from " << profile;
  }
}

TEST_P(CliObsAmplify, StatsReportExtractionTime) {
  const std::string stats =
      runCli("amplify --factor 50 --seed 42 " + std::string(GetParam()) + " --stats", "stderr");
  const std::string label = "\n  extract ";
  const std::size_t line = stats.find(label);
  ASSERT_NE(line, std::string::npos) << stats;
  const double extract_ms = std::strtod(stats.c_str() + line + label.size(), nullptr);
  EXPECT_GT(extract_ms, 0.0) << stats;
}

INSTANTIATE_TEST_SUITE_P(Engines, CliObsAmplify, ::testing::Values("--inter", "--intra"));

TEST(CliObsAmplifyStats, ReportsTheWorkerCount) {
  const std::string stats = runCli("amplify --factor 5 --seed 42 --jobs 4 --stats", "stderr");
  EXPECT_NE(stats.find("pipeline stats: jobs=4\n"), std::string::npos) << stats;
}

}  // namespace
}  // namespace fsdep
