// End-to-end checks of the CLI observability flags, driving the real
// fsdep binary (FSDEP_CLI_PATH, injected by CMake): --trace / --metrics
// / --report produce valid JSON files, instrumentation never perturbs
// stdout, --stats keeps stdout machine-parseable, and every instrument
// reports the same counts.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "json/json.h"

namespace fsdep {
namespace {

std::string cliPath() { return FSDEP_CLI_PATH; }

std::string tempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

/// Runs `command`, returning its stdout; stderr goes to `err_path`
/// (or /dev/null). Fails the test on a nonzero exit.
std::string runCli(const std::string& args, const std::string& err_path = "/dev/null") {
  const std::string command = cliPath() + " " + args + " 2>" + err_path;
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

/// Runs `args` under `timeout`, stderr to `err_path`; returns the exit
/// status and puts stdout in `out`.
int runCliStatus(const std::string& args, const std::string& err_path, std::string& out) {
  const std::string command = "timeout 60 " + cliPath() + " " + args + " 2>" + err_path;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return -1;
  out.clear();
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) out.append(buffer, n);
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status)) << command;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

json::Value parseOrFail(const std::string& text, const std::string& what) {
  Result<json::Value> parsed = json::parse(text);
  EXPECT_TRUE(parsed.ok()) << what << " is not valid JSON:\n" << text.substr(0, 400);
  return parsed.ok() ? std::move(parsed.value()) : json::Value();
}

TEST(CliObs, StatsKeepsStdoutPureJson) {
  const std::string out = runCli("extract --scenario s3 --json --stats");
  const json::Value parsed = parseOrFail(out, "extract --json --stats stdout");
  ASSERT_TRUE(parsed.isObject());
  EXPECT_TRUE(parsed.asObject().find("dependencies")->isArray());
}

TEST(CliObs, StatsTextKeepsItsShapeUnderTracing) {
  // Timings vary run to run, so compare the format, not the bytes: the
  // same headings must appear with and without tracing.
  const std::string plain_err = tempPath("cli_obs_stats_plain.txt");
  const std::string traced_err = tempPath("cli_obs_stats_traced.txt");
  const std::string trace = tempPath("cli_obs_stats_trace.json");
  runCli("table5 --stats", plain_err);
  runCli("table5 --stats --trace " + trace, traced_err);
  for (const std::string& path : {plain_err, traced_err}) {
    const std::string stats = slurp(path);
    EXPECT_NE(stats.find("pipeline stats: jobs="), std::string::npos) << stats;
    EXPECT_NE(stats.find("parse"), std::string::npos) << stats;
    EXPECT_NE(stats.find("analyze"), std::string::npos) << stats;
    EXPECT_NE(stats.find("extract"), std::string::npos) << stats;
    EXPECT_NE(stats.find("cache:"), std::string::npos) << stats;
    EXPECT_NE(stats.find("merges"), std::string::npos) << stats;
    EXPECT_EQ(std::count(stats.begin(), stats.end(), '\n'), 5) << stats;
  }
}

TEST(CliObs, Table5StdoutIsByteIdenticalUnderInstrumentation) {
  const std::string trace = tempPath("cli_obs_t5_trace.json");
  const std::string metrics = tempPath("cli_obs_t5_metrics.json");
  const std::string report = tempPath("cli_obs_t5_report.json");
  const std::string plain = runCli("table5 --jobs 4");
  const std::string instrumented = runCli("table5 --jobs 4 --trace " + trace +
                                          " --metrics " + metrics + " --report " + report +
                                          " --log debug");
  EXPECT_EQ(plain, instrumented);

  // --trace: a Chrome trace-event document with the promised spans.
  const json::Value trace_doc = parseOrFail(slurp(trace), "trace file");
  const json::Array& events = trace_doc.asObject().find("traceEvents")->asArray();
  EXPECT_GT(events.size(), 20u);
  std::set<std::string> analyze_pairs;
  bool saw_queue_wait = false;
  bool saw_cache = false;
  bool saw_table5 = false;
  for (const json::Value& ev : events) {
    const json::Object& e = ev.asObject();
    const std::string& name = e.find("name")->asString();
    ASSERT_TRUE(e.contains("ph"));
    ASSERT_TRUE(e.contains("ts"));
    ASSERT_TRUE(e.contains("pid"));
    ASSERT_TRUE(e.contains("tid"));
    if (name == "analyze") {
      const json::Object& args = e.find("args")->asObject();
      ASSERT_TRUE(args.contains("scenario"));
      ASSERT_TRUE(args.contains("component"));
      analyze_pairs.insert(args.find("scenario")->asString() + ":" +
                           args.find("component")->asString());
    }
    if (name == "queue-wait") saw_queue_wait = true;
    if (e.find("cat")->asString() == "cache") saw_cache = true;
    if (name == "table5") saw_table5 = true;
  }
  // Table 5 runs 4 scenarios over >= 2 components each; every pair gets
  // its own analyze span.
  EXPECT_GE(analyze_pairs.size(), 8u);
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_cache);
  EXPECT_TRUE(saw_table5);

  // --metrics: the registry dump carries the pipeline series.
  const json::Value metrics_doc = parseOrFail(slurp(metrics), "metrics file");
  std::set<std::string> counter_names;
  for (const json::Value& c : metrics_doc.asObject().find("counters")->asArray()) {
    counter_names.insert(c.asObject().find("name")->asString());
  }
  EXPECT_TRUE(counter_names.contains("pipeline.analyze_ns"));
  EXPECT_TRUE(counter_names.contains("pipeline.deps_extracted"));
  EXPECT_TRUE(counter_names.contains("cache.hits") || counter_names.contains("cache.misses"));

  // --report: versioned, carries the command line and the facts.
  const json::Value report_doc = parseOrFail(slurp(report), "report file");
  const json::Object& r = report_doc.asObject();
  EXPECT_EQ(r.find("tool")->asString(), "fsdep");
  EXPECT_EQ(r.find("command")->asString(), "table5");
  EXPECT_EQ(r.find("exit_code")->asInt(), 0);
  EXPECT_EQ(r.find("jobs")->asInt(), 4);
  EXPECT_GT(r.find("wall_ms")->asDouble(), 0.0);
  EXPECT_GT(r.find("facts")->asObject().find("unique_deps")->asInt(), 0);
  EXPECT_TRUE(r.find("metrics")->asObject().contains("histograms"));
}

TEST(CliObs, ProfileFlagKeepsStdoutByteIdentical) {
  const std::string profile = tempPath("cli_obs_t5_profile.txt");
  const std::string plain = runCli("table5 --jobs 4");
  const std::string profiled = runCli("table5 --jobs 4 --profile " + profile);
  EXPECT_EQ(plain, profiled);
  const std::string text = slurp(profile);
  EXPECT_NE(text.find("fsdep profile"), std::string::npos) << text;
  EXPECT_NE(text.find("by span (sorted by self time):"), std::string::npos) << text;
  EXPECT_NE(text.find("pipeline/analyze"), std::string::npos) << text;
}

TEST(CliObs, ProfileJsonTreeAttributesTheRun) {
  const std::string profile = tempPath("cli_obs_t5_profile.json");
  runCli("table5 --profile " + profile + " --profile-format json");
  const json::Value doc = parseOrFail(slurp(profile), "profile json");
  const json::Object& root = doc.asObject();
  EXPECT_EQ(root.find("schema_version")->asInt(), 1);
  EXPECT_EQ(root.find("command")->asString(), "table5");
  EXPECT_EQ(root.find("dropped_events")->asInt(), 0);
  EXPECT_GT(root.find("event_count")->asInt(), 20);
  // The cli root span makes the whole command attributable.
  EXPECT_GT(root.find("coverage")->asDouble(), 0.95);
  const json::Object& tree = root.find("root")->asObject();
  const json::Array& top = tree.find("children")->asArray();
  ASSERT_GE(top.size(), 1u);
  bool saw_cli = false;
  for (const json::Value& child : top) {
    const json::Object& node = child.asObject();
    if (node.find("category")->asString() == "cli") {
      saw_cli = true;
      EXPECT_EQ(node.find("name")->asString(), "table5");
      EXPECT_GE(node.find("children")->asArray().size(), 1u);
      EXPECT_GE(node.find("total_us")->asInt(), node.find("self_us")->asInt());
    }
  }
  EXPECT_TRUE(saw_cli);
}

TEST(CliObs, ProfileFoldedOutputHasCleanStacks) {
  const std::string profile = tempPath("cli_obs_t5_profile.folded");
  runCli("table5 --profile " + profile + " --profile-format folded");
  const std::string folded = slurp(profile);
  std::stringstream lines(folded);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string stack = line.substr(0, sp);
    EXPECT_FALSE(stack.empty()) << line;
    EXPECT_EQ(stack.find(";;"), std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(sp + 1)), 0u) << line;
    ++count;
  }
  EXPECT_GE(count, 5) << folded;
  EXPECT_NE(folded.find("table5;"), std::string::npos) << folded;
}

TEST(CliObs, ProfileSubcommandWrapsAnyCommand) {
  const std::string out = runCli("profile extract --scenario s3");
  // The wrapped command's output comes first, the attribution after.
  const std::size_t deps_pos = out.find("dependencies extracted");
  const std::size_t prof_pos = out.find("fsdep profile — extract");
  ASSERT_NE(deps_pos, std::string::npos) << out;
  ASSERT_NE(prof_pos, std::string::npos) << out;
  EXPECT_LT(deps_pos, prof_pos);
}

/// The numbers --stats prints (stderr of one run).
struct StatsText {
  std::string parse_ms;
  std::string analyze_ms;
  std::string extract_ms;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t component_runs = 0;
};

StatsText parseStatsText(const std::string& text) {
  StatsText stats;
  unsigned long long jobs = 0;
  unsigned long long hits = 0;
  unsigned long long misses = 0;
  unsigned long long runs = 0;
  char parse_ms[32] = {};
  char analyze_ms[32] = {};
  char extract_ms[32] = {};
  const std::size_t at = text.find("pipeline stats: ");
  EXPECT_NE(at, std::string::npos) << text;
  const int fields = std::sscanf(text.c_str() + (at == std::string::npos ? 0 : at),
                                 "pipeline stats: jobs=%llu\n"
                                 "  parse %31s ms  (cache: %llu hits, %llu misses)\n"
                                 "  analyze %31s ms  (%llu component runs)\n"
                                 "  extract %31s ms\n",
                                 &jobs, parse_ms, &hits, &misses, analyze_ms, &runs, extract_ms);
  EXPECT_EQ(fields, 7) << text;
  stats.parse_ms = parse_ms;
  stats.analyze_ms = analyze_ms;
  stats.extract_ms = extract_ms;
  stats.hits = hits;
  stats.misses = misses;
  stats.component_runs = runs;
  return stats;
}

/// Sum of every series of counter `name` in a registry dump.
std::uint64_t counterSum(const json::Value& metrics, const std::string& name) {
  std::uint64_t total = 0;
  for (const json::Value& c : metrics.asObject().find("counters")->asArray()) {
    const json::Object& counter = c.asObject();
    if (counter.find("name")->asString() == name) {
      total += static_cast<std::uint64_t>(counter.find("value")->asInt());
    }
  }
  return total;
}

/// A nanosecond sum as --stats prints it.
std::string statsMillis(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(ns) / 1e6);
  return buf;
}

/// Number of `category/name` spans in a JSON profile tree.
std::uint64_t spanCount(const json::Object& node, const std::string& category,
                        const std::string& name) {
  std::uint64_t count = 0;
  if (const json::Value* c = node.find("category"); c != nullptr && c->asString() == category &&
                                                    node.find("name")->asString() == name) {
    count += static_cast<std::uint64_t>(node.find("count")->asInt());
  }
  for (const json::Value& child : node.find("children")->asArray()) {
    count += spanCount(child.asObject(), category, name);
  }
  return count;
}

// ROADMAP's observability aim: a count lives in one registry series, and
// --stats, --metrics, --report and the profile all read it there. Each
// command runs once with every instrument on and no disk cache.
TEST(CliObs, EveryInstrumentReportsTheSameCounts) {
  unsetenv("FSDEP_CACHE_DIR");
  const std::string stats_path = tempPath("cli_obs_same_stats.txt");
  const std::string metrics_path = tempPath("cli_obs_same_metrics.json");
  const std::string report_path = tempPath("cli_obs_same_report.json");
  const std::string profile_path = tempPath("cli_obs_same_profile.json");
  for (const std::string command :
       {"table5 --intra", "extract --json --inter", "ablation", "amplify --factor 5"}) {
    SCOPED_TRACE(command);
    runCli(command + " --stats --metrics " + metrics_path + " --report " + report_path +
               " --profile " + profile_path + " --profile-format json",
           stats_path);
    const StatsText stats = parseStatsText(slurp(stats_path));
    const json::Value metrics = parseOrFail(slurp(metrics_path), "metrics file");
    const json::Value report = parseOrFail(slurp(report_path), "report file");
    const json::Value profile = parseOrFail(slurp(profile_path), "profile");
    const json::Value& report_metrics = *report.asObject().find("metrics");

    for (const json::Value* dump : {&metrics, &report_metrics}) {
      EXPECT_EQ(stats.hits, counterSum(*dump, "cache.hits"));
      EXPECT_EQ(stats.misses, counterSum(*dump, "cache.misses"));
    }
    EXPECT_EQ(stats.component_runs, counterSum(metrics, "pipeline.components_analyzed"));
    const json::Object& tree = profile.asObject().find("root")->asObject();
    EXPECT_EQ(stats.component_runs, spanCount(tree, "pipeline", "analyze"));
    EXPECT_EQ(stats.misses, spanCount(tree, "pipeline", "parse"));
    EXPECT_GT(stats.component_runs, 0u);
    EXPECT_EQ(stats.parse_ms, statsMillis(counterSum(metrics, "pipeline.parse_ns")));
    EXPECT_EQ(stats.analyze_ms, statsMillis(counterSum(metrics, "pipeline.analyze_ns")));
    EXPECT_EQ(stats.extract_ms, statsMillis(counterSum(metrics, "pipeline.extract_ns")));

    const std::uint64_t dropped = counterSum(metrics, "trace.dropped_events");
    EXPECT_EQ(static_cast<std::uint64_t>(report.asObject().find("trace_dropped_events")->asInt()),
              dropped);
    EXPECT_EQ(static_cast<std::uint64_t>(profile.asObject().find("dropped_events")->asInt()),
              dropped);

    // A name is either one total or a labeled family, never both: a sum
    // over a name that had both would count every event twice.
    std::set<std::string> labeled;
    std::set<std::string> unlabeled;
    for (const json::Value& c : metrics.asObject().find("counters")->asArray()) {
      const json::Object& counter = c.asObject();
      const bool has_labels = !counter.find("labels")->asObject().empty();
      (has_labels ? labeled : unlabeled).insert(counter.find("name")->asString());
    }
    for (const std::string& name : labeled) {
      EXPECT_EQ(unlabeled.count(name), 0u) << name << " is both labeled and unlabeled";
    }
  }
}

TEST(CliObs, CacheAttributionSurvivesHoistedLabeledCounters) {
  // The per-component labeled cache counters moved out of the cache
  // mutex (serve hot-path fix); the attribution itself must not change:
  // the per-component series sum to the hits and misses --stats prints.
  const std::string metrics = tempPath("cli_obs_cache_attr_metrics.json");
  const std::string stats_path = tempPath("cli_obs_cache_attr_stats.txt");
  runCli("table5 --jobs 4 --stats --metrics " + metrics, stats_path);
  const StatsText stats = parseStatsText(slurp(stats_path));
  const json::Value doc = parseOrFail(slurp(metrics), "metrics file");

  std::uint64_t labeled_hits = 0;
  std::uint64_t labeled_misses = 0;
  std::set<std::string> miss_components;
  for (const json::Value& c : doc.asObject().find("counters")->asArray()) {
    const json::Object& counter = c.asObject();
    const std::string& name = counter.find("name")->asString();
    if (name != "cache.hits" && name != "cache.misses") continue;
    const json::Object& labels = counter.find("labels")->asObject();
    ASSERT_TRUE(labels.contains("component")) << name;
    const std::uint64_t value = static_cast<std::uint64_t>(counter.find("value")->asInt());
    (name == "cache.hits" ? labeled_hits : labeled_misses) += value;
    if (name == "cache.misses") miss_components.insert(labels.find("component")->asString());
  }
  EXPECT_EQ(labeled_hits, stats.hits) << "per-component hit attribution drifted";
  EXPECT_EQ(labeled_misses, stats.misses) << "per-component miss attribution drifted";
  EXPECT_GE(miss_components.size(), 2u) << "table5 parses several components";
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(CliObs, DiskCacheCountersAppearInMetricsAndStdoutStaysIdentical) {
  const std::string cache_dir = tempPath("cli_obs_disk_cache_dir");
  const std::string metrics = tempPath("cli_obs_disk_cache_metrics.json");
  std::system(("rm -rf " + cache_dir).c_str());
  const std::string baseline = runCli("extract --scenario s2");
  const std::string cold = runCli("extract --scenario s2 --cache-dir " + cache_dir);
  const std::string warm =
      runCli("extract --scenario s2 --cache-dir " + cache_dir + " --metrics " + metrics);
  EXPECT_EQ(baseline, cold) << "cold cached stdout must match the uncached run";
  EXPECT_EQ(baseline, warm) << "warm cached stdout must match the uncached run";

  const json::Value doc = parseOrFail(slurp(metrics), "metrics file");
  std::uint64_t disk_hits = 0;
  for (const json::Value& c : doc.asObject().find("counters")->asArray()) {
    const json::Object& counter = c.asObject();
    if (counter.find("name")->asString() == "cache.disk.hits") {
      disk_hits += static_cast<std::uint64_t>(counter.find("value")->asInt());
    }
  }
  EXPECT_GT(disk_hits, 0u) << "warm run must hit the disk cache";
  std::system(("rm -rf " + cache_dir).c_str());
}

TEST(CliObs, UnknownArgumentsFailLoudly) {
  // A misspelled flag used to be ignored (extract --scenaro s1 analyzed
  // every scenario, graph --selfdeps dropped the SD nodes, serve --sockt
  // bound the default socket), a malformed value ran anyway (bugck
  // --runs abc ran zero configurations), a global option missing its
  // value ran the command, and an unknown command printed the usage to
  // stdout. Each must exit 2 before printing anything, naming the
  // argument or command. Every case runs under `timeout`, so a command
  // that starts running (a daemon) fails the test instead of hanging it.
  struct Case {
    const char* args;
    const char* message;
  };
  const std::string err_path = tempPath("cli_obs_unknown_arg.txt");
  const std::string socket = tempPath("cli_obs_unknown_arg.sock");
  const std::string serve = "serve --sockt " + socket;
  for (const Case& c : {Case{"extract --scenaro s1", "unknown argument '--scenaro'"},
                        Case{"extract --legacy-passes", "unknown argument '--legacy-passes'"},
                        Case{"table5 --legacy-passes", "unknown argument '--legacy-passes'"},
                        Case{"amplify --factor 1 --legacy-passes",
                             "unknown argument '--legacy-passes'"},
                        Case{"check tool.c --legacy-passes", "unknown argument '--legacy-passes'"},
                        Case{"query --legacy-passes", "unknown argument '--legacy-passes'"},
                        Case{"extract --legacy-walk", "unknown argument '--legacy-walk'"},
                        Case{"table5 --legacy-walk", "unknown argument '--legacy-walk'"},
                        Case{"amplify --factor 1 --legacy-walk",
                             "unknown argument '--legacy-walk'"},
                        Case{"check tool.c --legacy-walk", "unknown argument '--legacy-walk'"},
                        Case{"query --legacy-walk", "unknown argument '--legacy-walk'"},
                        Case{"graph --selfdeps", "unknown argument '--selfdeps'"},
                        Case{"bugck --runs abc", "--runs expects an integer, got 'abc'"},
                        Case{serve.c_str(), "unknown argument '--sockt'"},
                        Case{"table2 --bogus", "unknown argument '--bogus'"},
                        Case{"docck --bogus", "unknown argument '--bogus'"},
                        Case{"explain mke2fs.sparse_super2 --bogus", "unknown argument '--bogus'"},
                        Case{"table2 --trace", "--trace requires a value"},
                        Case{"docck --jobs", "--jobs requires a value"},
                        Case{"extract --trace", "--trace requires a value"},
                        Case{"xfs", "unknown command 'xfs'"},
                        Case{"nosuchcmd", "unknown command 'nosuchcmd'"},
                        Case{"profile nosuchcmd", "unknown command 'nosuchcmd'"}}) {
    std::string out;
    EXPECT_EQ(runCliStatus(c.args, err_path, out), 2) << c.args;
    EXPECT_EQ(out, "") << c.args;
    const std::string err = slurp(err_path);
    EXPECT_NE(err.find(c.message), std::string::npos) << c.args << "\n" << err;
  }
}

TEST(CliObs, FailOnTakesEachCommandsOwnClasses) {
  // CrashCk has no cells that fail: `crashck --fail-on failed` used to
  // be accepted and could never fire. It is a usage error naming the
  // class; the campaign, whose cells can fail, takes it.
  const std::string err_path = tempPath("cli_obs_fail_on.txt");
  const std::string crashck = "needs-repair, silent-corruption, data-loss";
  const std::string campaign = crashck + ", failed";
  std::string out;
  EXPECT_EQ(runCliStatus("crashck --op tune --fail-on failed", err_path, out), 2);
  EXPECT_EQ(slurp(err_path),
            "crashck: unknown --fail-on class 'failed' (valid: " + crashck + ")\n");
  EXPECT_EQ(runCliStatus("crashck --op tune --fail-on bogus", err_path, out), 2);
  EXPECT_EQ(slurp(err_path),
            "crashck: unknown --fail-on class 'bogus' (valid: " + crashck + ")\n");
  EXPECT_EQ(runCliStatus("campaign --fail-on bogus", err_path, out), 2);
  EXPECT_EQ(slurp(err_path),
            "campaign: unknown --fail-on class 'bogus' (valid: " + campaign + ")\n");
  EXPECT_EQ(runCliStatus("campaign --seed 42 --op tune --configs 1 --crash-points 1 "
                         "--double-faults 0 --fail-on failed",
                         err_path, out),
            0);

  // Each command's help names its own classes.
  EXPECT_EQ(runCliStatus("", err_path, out), 2);
  const std::string help = "--fail-on CLASSES     exit 3 when any comma-separated class occurred (";
  const std::size_t crashck_help = out.find(help + crashck + ")");
  const std::size_t campaign_help = out.find(help + campaign + ")");
  EXPECT_NE(crashck_help, std::string::npos) << out;
  EXPECT_NE(campaign_help, std::string::npos) << out;
  EXPECT_LT(crashck_help, out.find("\n  campaign ")) << out;
  EXPECT_GT(campaign_help, out.find("\n  campaign ")) << out;
}

TEST(CliObs, LogFlagControlsStderr) {
  const std::string quiet_err = tempPath("cli_obs_log_off.txt");
  const std::string info_err = tempPath("cli_obs_log_info.txt");
  runCli("extract --scenario s3 --log off", quiet_err);
  runCli("extract --scenario s3 --log info", info_err);
  EXPECT_EQ(slurp(quiet_err), "");
  const std::string info = slurp(info_err);
  EXPECT_NE(info.find("fsdep[info]"), std::string::npos) << info;
}

}  // namespace
}  // namespace fsdep
