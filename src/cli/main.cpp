// fsdep — command line front end.
//
//   fsdep extract [--scenario s1..s4] [--inter|--intra] [--no-bridging] [--json]
//   fsdep table2 | table3 | table4 | table5
//   fsdep amplify [--factor N] [--seed S] [--budget-ms M] [--json]
//   fsdep docck
//   fsdep handleck
//   fsdep bugck [--runs N]
//   fsdep figure1
//   fsdep dump-ast <component>
//   fsdep dump-cfg <component> <function>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ast/parser.h"
#include "lex/preprocessor.h"

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/trace.h"

#include "ast/dump.h"
#include "corpus/amplify.h"
#include "corpus/pipeline.h"
#include "support/thread_pool.h"
#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/resize.h"
#include "model/serialization.h"
#include "study/bug_study.h"
#include "study/coverage.h"
#include "tools/conbugck.h"
#include "tools/condocck.h"
#include "tools/conhandleck.h"
#include "tools/campaign.h"
#include "tools/crashck.h"
#include "tools/depgraph.h"
#include "tools/serve.h"

namespace {

using namespace fsdep;

int usage() {
  std::puts(
      "usage: fsdep <command> [options]\n"
      "\n"
      "global options (every command):\n"
      "  --jobs N        analyze N (scenario x component) pairs, and extract N\n"
      "                  components, concurrently\n"
      "                  (default: FSDEP_JOBS env var, else hardware threads)\n"
      "  --stats         print pipeline perf counters (parse/analyze/extract\n"
      "                  time, cache hits, fixpoint merges) to stderr\n"
      "  --trace FILE    record spans and write a Chrome trace-event JSON\n"
      "                  (open in Perfetto / chrome://tracing)\n"
      "  --metrics FILE  dump the metrics registry (counters, gauges,\n"
      "                  histograms) as JSON on exit\n"
      "  --report FILE   write a structured run report (version, command,\n"
      "                  wall time, metrics, per-command facts) as JSON\n"
      "  --profile FILE  aggregate spans into a hierarchical wall-time\n"
      "                  attribution tree and write it to FILE (stdout is\n"
      "                  byte-identical to a run without --profile)\n"
      "  --profile-format FMT  text (sorted self-time table, default),\n"
      "                  json (attribution tree), or folded (collapsed\n"
      "                  stacks for flamegraph renderers)\n"
      "  --log LEVEL     stderr log level: debug|info|warn|error|off\n"
      "                  (default: FSDEP_LOG env var, else warn;\n"
      "                  FSDEP_LOG_FORMAT=json switches to JSON lines)\n"
      "  --cache-dir DIR persist analysis results in an on-disk cache under\n"
      "                  DIR; unchanged inputs skip parse+analysis entirely\n"
      "                  (default: FSDEP_CACHE_DIR env var, else disabled)\n"
      "  --no-cache      disable both the on-disk cache and in-process\n"
      "                  component reuse (every run parses fresh)\n"
      "\n"
      "commands:\n"
      "  extract    run the static analyzer over the corpus and print the\n"
      "             extracted multi-level dependencies\n"
      "               --scenario s1..s4   analyze one scenario (default: all)\n"
      "               --inter             inter-procedural taint (default:\n"
      "                                   FSDEP_INTER env var, else intra)\n"
      "               --intra             force intra-procedural taint (opt-out\n"
      "                                   when FSDEP_INTER is set)\n"
      "               --legacy-walk       interpret AST statements instead of\n"
      "                                   compiled Taint-IR (oracle)\n"
      "               --no-bridging       disable metadata bridging (ablation)\n"
      "               --json              emit JSON instead of text\n"
      "  table2     test-suite configuration coverage (paper Table 2)\n"
      "  table3     bug-study distribution (paper Table 3)\n"
      "  table4     dependency taxonomy (paper Table 4)\n"
      "  table5     extraction evaluation (paper Table 5)\n"
      "               --inter / --intra / --legacy-walk as in extract\n"
      "  amplify    generate a synthetic amplified corpus (deterministic,\n"
      "             config-flow shaped) and analyze it end to end\n"
      "               --factor N      synthetic components per real Ext4\n"
      "                               component (default 100 -> 600 total)\n"
      "               --seed S        generator seed (default 42)\n"
      "               --intra         intra-procedural taint (default: inter)\n"
      "               --legacy-walk   AST-walk oracle (default: Taint-IR)\n"
      "               --budget-ms M   exit 3 when the end-to-end run exceeds\n"
      "                               M milliseconds (CI wall-clock guard)\n"
      "               --json          emit JSON instead of text\n"
      "  docck      ConDocCk: manual-vs-code inconsistencies\n"
      "  handleck   ConHandleCk: dependency-violation campaign\n"
      "  bugck      ConBugCk: dependency-aware config generation (--runs N)\n"
      "  figure1    reproduce the sparse_super2 resize corruption\n"
      "  crashck    CrashCk: crash-point enumeration over the fsim tools\n"
      "               --op OP    one of mkfs, mount, resize, resize-buggy,\n"
      "                          defrag, tune (default: all)\n"
      "               --seed S   fault-schedule seed (default 42)\n"
      "               --json     emit JSON instead of text\n"
      "               --fail-on CLASSES  exit 3 when any of the comma-separated\n"
      "                          outcome classes occurred (silent-corruption,\n"
      "                          data-loss, needs-repair)\n"
      "  campaign   crash x fault x config matrix campaign with outcome dedup\n"
      "             and ddmin schedule minimization\n"
      "               --seed S          campaign seed (default 42)\n"
      "               --op OP           restrict to one op (repeatable)\n"
      "               --configs N       cap the sampled matrix (default 24)\n"
      "               --crash-points N  crash cells per config x op (default 4)\n"
      "               --double-faults N crash+transient cells per config x op\n"
      "               --no-pairwise     each-used-value sampling only\n"
      "               --no-minimize     skip ddmin reproducer minimization\n"
      "               --retries N       per-cell retry budget (default 2)\n"
      "               --corpus DIR      persist minimized reproducers as a\n"
      "                                 versioned regression corpus\n"
      "               --replay DIR      replay a corpus dir instead of running\n"
      "               --json            emit JSON instead of text\n"
      "               --fail-on CLASSES exit 3 on the given outcome classes\n"
      "                                 (adds 'failed' for dead cells)\n"
      "  profile    run a command under the profiler and print the\n"
      "             attribution to stdout (default wrapped command: table5)\n"
      "               fsdep profile [--format text|json|folded] [--out FILE]\n"
      "                             [<command> [args...]]\n"
      "  serve      long-running analysis daemon on a local Unix socket;\n"
      "             answers newline-delimited JSON queries (see docs/serve.md)\n"
      "               --socket PATH  socket path (default: FSDEP_SOCKET env\n"
      "                              var, else /tmp/fsdep.sock)\n"
      "  query      send one request to a running `fsdep serve` daemon and\n"
      "             print its stdout (byte-identical to the one-shot command)\n"
      "               --socket PATH   daemon socket (default as in serve)\n"
      "               --type T        ping|extract|depgraph|docck|blame|stats|\n"
      "                               invalidate|shutdown (default: extract)\n"
      "               --scenario s1..s4 / --inter / --intra / --no-bridging /\n"
      "               --json          forwarded to extract queries\n"
      "               --param P       parameter for blame queries\n"
      "               --self-deps     include SD nodes in depgraph queries\n"
      "               --timing        print cached/wall_us to stderr\n"
      "               --raw JSON      send a raw request line instead\n"
      "  xfs        run the analyzer over the XFS mini-ecosystem (paper SS6)\n"
      "               --inter / --intra / --legacy-walk / --json as in extract\n"
      "  bugs       list the 67-case bug study dataset (--json for JSON)\n"
      "  explain    show everything known about one parameter\n"
      "  graph      emit the dependency graph as Graphviz dot\n"
      "  check      analyze YOUR C file: fsdep check tool.c --seed fn:var:param\n"
      "               [--component NAME] [--owner NAME] [--inter|--intra] [--json]\n"
      "  export-corpus <dir>  write the embedded corpus sources to disk\n"
      "  dump-ast   print the parsed AST of a corpus component\n"
      "  dump-cfg   print the CFG of one function\n");
  return 2;
}

bool hasFlag(const std::vector<std::string>& args, const char* flag) {
  for (const std::string& a : args) {
    if (a == flag) return true;
  }
  return false;
}

std::string flagValue(const std::vector<std::string>& args, const char* flag,
                      const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return fallback;
}

/// True when every argument from `first` on is one `command` knows:
/// a `switches` entry, or a `valued` flag followed by its value.
/// Otherwise prints the offending argument and returns false, so a
/// misspelled or removed flag fails loudly instead of being ignored.
bool knownArgs(const char* command, const std::vector<std::string>& args,
               std::initializer_list<std::string_view> switches,
               std::initializer_list<std::string_view> valued = {}, std::size_t first = 0) {
  const auto in = [](std::initializer_list<std::string_view> set, const std::string& arg) {
    return std::find(set.begin(), set.end(), arg) != set.end();
  };
  for (std::size_t i = first; i < args.size(); ++i) {
    if (in(switches, args[i])) continue;
    if (!in(valued, args[i])) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", command, args[i].c_str());
      return false;
    }
    if (++i == args.size()) {
      std::fprintf(stderr, "%s: %s requires a value\n", command, args[i - 1].c_str());
      return false;
    }
  }
  return true;
}

/// FSDEP_INTER environment variable (parity with FSDEP_JOBS): set to
/// anything but "", "0", "false" or "off" to make inter-procedural taint
/// the default for extract/table5/check. Flags still win over the env.
bool envInterDefault() {
  const char* env = std::getenv("FSDEP_INTER");
  if (env == nullptr) return false;
  const std::string value = env;
  return !(value.empty() || value == "0" || value == "false" || value == "off");
}

/// Taint-engine selection shared by extract, table5, xfs and check:
/// FSDEP_INTER sets the default, --inter forces inter-procedural,
/// --intra forces intra-procedural, and --legacy-walk swaps the compiled
/// Taint-IR for the AST-walk oracle.
taint::AnalysisOptions taintOptionsFromFlags(const std::vector<std::string>& args) {
  taint::AnalysisOptions topts;
  topts.inter_procedural = envInterDefault();
  if (hasFlag(args, "--inter")) topts.inter_procedural = true;
  if (hasFlag(args, "--intra")) topts.inter_procedural = false;
  if (hasFlag(args, "--legacy-walk")) topts.compile_ir = false;
  return topts;
}

int cmdExtract(const std::vector<std::string>& args) {
  if (!knownArgs("extract", args,
                 {"--inter", "--intra", "--legacy-walk", "--no-bridging", "--json"},
                 {"--scenario"})) {
    return 2;
  }
  taint::AnalysisOptions topts = taintOptionsFromFlags(args);
  extract::ExtractOptions eopts = corpus::extractOptions();
  eopts.enable_bridging = !hasFlag(args, "--no-bridging");
  topts.field_bridging = eopts.enable_bridging;
  const std::string scenario_id = flagValue(args, "--scenario", "all");

  std::vector<model::Dependency> deps;
  if (scenario_id == "all") {
    std::vector<std::vector<model::Dependency>> per_scenario;
    for (const corpus::Scenario& s : corpus::scenarios()) {
      per_scenario.push_back(corpus::runScenario(s, topts, &eopts));
    }
    deps = extract::dedupeAcrossScenarios(per_scenario);
  } else {
    bool found = false;
    for (const corpus::Scenario& s : corpus::scenarios()) {
      if (s.id == scenario_id) {
        deps = corpus::runScenario(s, topts, &eopts);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown scenario '%s'\n", scenario_id.c_str());
      return 2;
    }
  }

  obs::RunReport::global().note("deps_extracted", deps.size());
  FSDEP_LOG_INFO("cli", "extract: %zu dependencies (scenario %s)", deps.size(),
                 scenario_id.c_str());
  if (hasFlag(args, "--json")) {
    std::fputs(json::writePretty(model::toJson(deps)).c_str(), stdout);
  } else {
    for (const model::Dependency& dep : deps) std::printf("%s\n", dep.summary().c_str());
    std::printf("\n%zu dependencies extracted\n", deps.size());
  }
  return 0;
}

int cmdCrashCk(const std::vector<std::string>& args) {
  tools::CrashCkOptions options;
  tools::FailOnSet fail_on;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") continue;
    if (args[i] == "--op" || args[i] == "--seed" || args[i] == "--fail-on") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "crashck: %s requires a value\n", args[i].c_str());
        return 2;
      }
      const std::string& value = args[++i];
      if (args[i - 1] == "--op") {
        options.ops.push_back(value);
      } else if (args[i - 1] == "--fail-on") {
        const Result<tools::FailOnSet> parsed = tools::parseFailOn(value);
        if (!parsed.ok()) {
          std::fprintf(stderr, "crashck: %s\n", parsed.error().message.c_str());
          return 2;
        }
        fail_on = parsed.value();
      } else {
        char* end = nullptr;
        options.seed = std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') {
          std::fprintf(stderr, "crashck: --seed expects an integer, got '%s'\n", value.c_str());
          return 2;
        }
      }
      continue;
    }
    std::fprintf(stderr, "crashck: unknown argument '%s'\n", args[i].c_str());
    return 2;
  }

  const Result<tools::CrashCkReport> result = tools::runCrashCk(options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().message.c_str());
    return 2;
  }
  const tools::CrashCkReport& report = result.value();
  {
    obs::RunReport& run_report = obs::RunReport::global();
    run_report.note("crashck_summary", report.summary());
    run_report.note("crashck_recovered",
                    static_cast<std::uint64_t>(report.totalOf(tools::CrashOutcome::Recovered)));
    run_report.note("crashck_needs_repair",
                    static_cast<std::uint64_t>(report.totalOf(tools::CrashOutcome::NeedsRepair)));
    run_report.note("crashck_silent_corruption",
                    static_cast<std::uint64_t>(
                        report.totalOf(tools::CrashOutcome::SilentCorruption)));
    run_report.note("crashck_data_loss",
                    static_cast<std::uint64_t>(report.totalOf(tools::CrashOutcome::DataLoss)));
  }

  int exit_code = 0;
  if (!fail_on.empty()) {
    for (const tools::CrashOutcome outcome :
         {tools::CrashOutcome::NeedsRepair, tools::CrashOutcome::SilentCorruption,
          tools::CrashOutcome::DataLoss}) {
      if (fail_on.matches(outcome) && report.totalOf(outcome) > 0) exit_code = 3;
    }
  }

  if (hasFlag(args, "--json")) {
    json::Object root;
    root["seed"] = static_cast<std::uint64_t>(report.seed);
    json::Array ops;
    for (const tools::CrashOpReport& r : report.ops) {
      json::Object o;
      o["op"] = r.op;
      o["total_writes"] = static_cast<std::uint64_t>(r.total_writes);
      json::Array points;
      for (const tools::CrashPoint& p : r.points) {
        json::Object pt;
        pt["write_index"] = static_cast<std::uint64_t>(p.write_index);
        pt["control"] = p.control;
        pt["outcome"] = tools::crashOutcomeName(p.outcome);
        pt["detail"] = p.detail;
        points.push_back(std::move(pt));
      }
      o["points"] = std::move(points);
      ops.push_back(std::move(o));
    }
    root["ops"] = std::move(ops);
    std::fputs(json::writePretty(root).c_str(), stdout);
    return exit_code;
  }

  std::printf("CrashCk: seed %llu\n\n", static_cast<unsigned long long>(report.seed));
  for (const tools::CrashOpReport& r : report.ops) {
    std::printf("%-13s %3llu write(s)  %s\n", r.op.c_str(),
                static_cast<unsigned long long>(r.total_writes), r.histogram().c_str());
    for (const tools::CrashPoint& p : r.points) {
      if (p.outcome == tools::CrashOutcome::SilentCorruption ||
          p.outcome == tools::CrashOutcome::DataLoss) {
        std::printf("    write %3llu%s [%s] %s\n",
                    static_cast<unsigned long long>(p.write_index),
                    p.control ? " (control)" : "", tools::crashOutcomeName(p.outcome),
                    p.detail.c_str());
      }
    }
  }
  std::printf("\n%s\n", report.summary().c_str());
  if (exit_code != 0)
    std::fprintf(stderr, "crashck: --fail-on outcome class present, exiting 3\n");
  return exit_code;
}

int cmdCampaign(const std::vector<std::string>& args) {
  tools::CampaignOptions options;
  tools::FailOnSet fail_on;
  std::string replay_dir;
  const auto parseCount = [](const std::string& value, const char* flag,
                             std::uint64_t& out) -> bool {
    char* end = nullptr;
    out = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      std::fprintf(stderr, "campaign: %s expects an integer, got '%s'\n", flag, value.c_str());
      return false;
    }
    return true;
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") continue;
    if (arg == "--no-pairwise") {
      options.pairwise = false;
      continue;
    }
    if (arg == "--no-minimize") {
      options.minimize = false;
      continue;
    }
    if (arg == "--seed" || arg == "--op" || arg == "--configs" || arg == "--crash-points" ||
        arg == "--double-faults" || arg == "--retries" || arg == "--corpus" ||
        arg == "--replay" || arg == "--fail-on") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "campaign: %s requires a value\n", arg.c_str());
        return 2;
      }
      const std::string& value = args[++i];
      std::uint64_t n = 0;
      if (arg == "--op") {
        options.ops.push_back(value);
      } else if (arg == "--corpus") {
        options.corpus_dir = value;
      } else if (arg == "--replay") {
        replay_dir = value;
      } else if (arg == "--fail-on") {
        const Result<tools::FailOnSet> parsed = tools::parseFailOn(value);
        if (!parsed.ok()) {
          std::fprintf(stderr, "campaign: %s\n", parsed.error().message.c_str());
          return 2;
        }
        fail_on = parsed.value();
      } else if (!parseCount(value, arg.c_str(), n)) {
        return 2;
      } else if (arg == "--seed") {
        options.seed = n;
      } else if (arg == "--configs") {
        options.max_configs = static_cast<std::size_t>(n);
      } else if (arg == "--crash-points") {
        options.max_crash_points = static_cast<std::size_t>(n);
      } else if (arg == "--double-faults") {
        options.max_double_faults = static_cast<std::size_t>(n);
      } else if (arg == "--retries") {
        options.cell_retries = static_cast<std::uint32_t>(n);
      }
      continue;
    }
    std::fprintf(stderr, "campaign: unknown argument '%s'\n", arg.c_str());
    return 2;
  }

  if (!replay_dir.empty()) {
    const Result<tools::ReplayReport> result = tools::replayCampaignCorpus(replay_dir);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.error().message.c_str());
      return 2;
    }
    const tools::ReplayReport& report = result.value();
    for (const tools::ReplayCase& c : report.cases) {
      std::printf("%-9s %s: recorded %s, replayed %s%s\n",
                  c.outcome_match ? "MATCH" : "MISMATCH", c.file.c_str(),
                  tools::crashOutcomeName(c.recorded), tools::crashOutcomeName(c.replayed),
                  c.digest_match ? "" : " (digest drifted)");
    }
    std::printf("\nreplay: %s\n", report.summary().c_str());
    obs::RunReport::global().note("campaign_replay", report.summary());
    return report.allMatch() ? 0 : 1;
  }

  const std::vector<model::Dependency> deps = corpus::runTable5().unique_deps;
  const Result<tools::CampaignReport> result = tools::runMatrixCampaign(options, deps);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().message.c_str());
    return 2;
  }
  const tools::CampaignReport& report = result.value();
  {
    obs::RunReport& run_report = obs::RunReport::global();
    run_report.note("campaign_summary", report.summary());
    run_report.note("campaign_histogram", report.histogram());
    run_report.note("campaign_cells", static_cast<std::uint64_t>(report.cells.size()));
    run_report.note("campaign_configs", static_cast<std::uint64_t>(report.configs.size()));
    run_report.note("campaign_unique_outcomes", report.unique_outcomes);
    run_report.note("campaign_dedup_hits", report.dedup_hits);
    run_report.note("campaign_minimizer_probes", report.minimizer_probes);
    run_report.note("campaign_repros", static_cast<std::uint64_t>(report.repros.size()));
    run_report.note(
        "campaign_silent_corruption",
        static_cast<std::uint64_t>(report.totalOf(tools::CrashOutcome::SilentCorruption)));
    run_report.note("campaign_data_loss",
                    static_cast<std::uint64_t>(report.totalOf(tools::CrashOutcome::DataLoss)));
    run_report.note("campaign_failed_cells",
                    static_cast<std::uint64_t>(report.totalFailed()));
  }

  int exit_code = 0;
  if (!fail_on.empty()) {
    for (const tools::CrashOutcome outcome :
         {tools::CrashOutcome::NeedsRepair, tools::CrashOutcome::SilentCorruption,
          tools::CrashOutcome::DataLoss}) {
      if (fail_on.matches(outcome) && report.totalOf(outcome) > 0) exit_code = 3;
    }
    if (fail_on.failed && report.totalFailed() > 0) exit_code = 3;
  }

  if (hasFlag(args, "--json")) {
    std::fputs(json::writePretty(json::Value(report.toJson())).c_str(), stdout);
  } else {
    std::fputs(report.renderText().c_str(), stdout);
  }
  if (exit_code != 0)
    std::fprintf(stderr, "campaign: --fail-on outcome class present, exiting 3\n");
  return exit_code;
}

int cmdFigure1() {
  using namespace fsim;
  std::puts("Reproducing the paper's Figure 1: sparse_super2 + resize2fs expansion\n");
  for (const bool fixed : {false, true}) {
    BlockDevice device(8192, 1024);
    MkfsOptions mo;
    mo.block_size = 1024;
    mo.size_blocks = 2048;
    mo.blocks_per_group = 512;
    mo.sparse_super2 = true;
    mo.resize_inode = false;
    mo.inode_ratio = 8192;
    const Result<Superblock> sb = MkfsTool::format(device, mo);
    if (!sb.ok()) {
      std::fprintf(stderr, "mkfs failed: %s\n", sb.error().message.c_str());
      return 1;
    }
    Result<MountedFs> mounted = MountTool::mount(device, MountOptions{});
    if (mounted.ok()) {
      (void)mounted.value().createFile(8192, 2);
      mounted.value().unmount();
    }
    ResizeOptions ro;
    ro.new_size_blocks = 3072;
    ro.fix_sparse_super2_accounting = fixed;
    const Result<ResizeReport> resized = ResizeTool::resize(device, ro);
    if (!resized.ok()) {
      std::fprintf(stderr, "resize failed: %s\n", resized.error().message.c_str());
      return 1;
    }
    const Result<FsckReport> fsck = FsckTool::check(device, FsckOptions{.force = true});
    std::printf("%s accounting: fsck reports %s\n", fixed ? "fixed " : "buggy ",
                fsck.ok() ? fsck.value().summary().c_str() : "error");
    if (fsck.ok()) {
      for (const FsckProblem& p : fsck.value().problems) {
        std::printf("    - %s\n", p.description.c_str());
      }
    }
  }
  return 0;
}

int cmdDumpAst(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "dump-ast: which component? (mke2fs, mount, ext4, ...)\n");
    return 2;
  }
  try {
    corpus::AnalyzedComponent component(args[0], taint::AnalysisOptions{});
    std::fputs(ast::dumpTranslationUnit(component.tu()).c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

int cmdDumpCfg(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::fprintf(stderr, "dump-cfg: need <component> <function>\n");
    return 2;
  }
  try {
    corpus::AnalyzedComponent component(args[0], taint::AnalysisOptions{});
    const ast::FunctionDecl* fn = component.tu().findFunction(args[1]);
    if (fn == nullptr || !fn->isDefinition()) {
      std::fprintf(stderr, "no function '%s' in %s\n", args[1].c_str(), args[0].c_str());
      return 1;
    }
    std::fputs(cfg::Cfg::build(*fn)->dump().c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}

int cmdCheck(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "check: need a C file\n");
    return 2;
  }
  if (!knownArgs("check", args, {"--inter", "--intra", "--legacy-walk", "--json"},
                 {"--component", "--owner", "--seed"}, /*first=*/1)) {
    return 2;
  }
  const std::string path = args[0];
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "check: cannot read %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  const std::string component = flagValue(args, "--component", "tool");

  SourceManager sm;
  DiagnosticEngine diags;
  const FileId file = sm.addBuffer(path, buffer.str());
  // Headers resolve against the file's directory first, then the corpus.
  const std::string dir = path.find('/') != std::string::npos
                              ? path.substr(0, path.rfind('/') + 1)
                              : std::string();
  lex::Preprocessor pp(sm, diags, [&dir](std::string_view name) -> std::optional<std::string> {
    std::ifstream header(dir + std::string(name));
    if (header) {
      std::stringstream text;
      text << header.rdbuf();
      return text.str();
    }
    return corpus::headerSource(name);
  });
  ast::Parser parser(pp.tokenize(file), diags);
  auto tu = parser.parseTranslationUnit(path);
  if (diags.hasErrors()) {
    std::fputs(diags.render(sm).c_str(), stderr);
    return 1;
  }
  sema::Sema sema_obj(*tu, diags);
  sema_obj.run();

  const taint::AnalysisOptions topts = taintOptionsFromFlags(args);
  taint::Analyzer analyzer(*tu, sema_obj, topts);
  int seeds = 0;
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] != "--seed") continue;
    const std::string spec = args[i + 1];  // fn:var:component.param
    const std::size_t c1 = spec.find(':');
    const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      std::fprintf(stderr, "check: bad --seed '%s' (want fn:var:component.param)\n",
                   spec.c_str());
      return 2;
    }
    analyzer.addSeed({spec.substr(0, c1), spec.substr(c1 + 1, c2 - c1 - 1),
                      spec.substr(c2 + 1)});
    ++seeds;
  }
  if (seeds == 0) {
    std::fprintf(stderr,
                 "check: no --seed given; nothing to track.\n"
                 "       example: --seed main:blocksize:%s.blocksize\n",
                 component.c_str());
    return 2;
  }
  analyzer.run();

  extract::ExtractOptions eopts = corpus::extractOptions();
  eopts.metadata_owner = flagValue(args, "--owner", component);
  const auto deps = extract::extractDependencies(
      {{component, false, &analyzer, &sema_obj}}, eopts);

  if (hasFlag(args, "--json")) {
    std::fputs(json::writePretty(model::toJson(deps)).c_str(), stdout);
  } else {
    for (const model::Dependency& dep : deps) {
      std::printf("%s\n", dep.summary().c_str());
      for (const std::string& step : dep.trace) std::printf("    %s\n", step.c_str());
    }
    std::printf("\n%zu dependencies extracted from %s\n", deps.size(), path.c_str());
  }
  return 0;
}

/// The kernel-scale smoke: generate an amplified corpus, analyze every
/// synthetic component (all functions) across the thread pool, and
/// extract dependencies over the whole ecosystem. --budget-ms turns the
/// run into a CI wall-clock guard (exit 3 on overrun).
int cmdAmplify(const std::vector<std::string>& args) {
  if (!knownArgs("amplify", args, {"--inter", "--intra", "--legacy-walk", "--json"},
                 {"--factor", "--seed", "--budget-ms"})) {
    return 2;
  }
  corpus::AmplifyOptions aopts;
  const auto parseCount = [&args](const char* flag, std::uint64_t fallback,
                                  std::uint64_t& out) -> bool {
    const std::string value = flagValue(args, flag, std::to_string(fallback));
    char* end = nullptr;
    out = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      std::fprintf(stderr, "amplify: %s expects an integer, got '%s'\n", flag, value.c_str());
      return false;
    }
    return true;
  };
  std::uint64_t factor = 0;
  std::uint64_t budget_ms = 0;
  if (!parseCount("--factor", 100, factor) || !parseCount("--seed", 42, aopts.seed) ||
      !parseCount("--budget-ms", 0, budget_ms)) {
    return 2;
  }
  if (factor == 0) {
    std::fprintf(stderr, "amplify: --factor must be positive\n");
    return 2;
  }
  aopts.factor = static_cast<std::size_t>(factor);

  taint::AnalysisOptions topts;
  topts.inter_procedural = !hasFlag(args, "--intra");
  if (hasFlag(args, "--legacy-walk")) topts.compile_ir = false;
  // Analysis and extraction below run on the global pool.
  obs::Registry::global().gauge("pipeline.jobs").set(ThreadPool::globalJobs());

  using Clock = std::chrono::steady_clock;
  const auto millisSince = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
  };

  // The whole amplify run is one disk-cache entry keyed by its inputs
  // (the generator is deterministic in factor x seed, so component
  // sources need no digesting — they don't exist before generation).
  // The payload carries every analysis-derived number the output needs,
  // so a warm run skips generate+parse+analyze+extract entirely.
  corpus::DiskCache& disk = corpus::DiskCache::global();
  corpus::CacheKey cache_key;
  if (disk.enabled()) {
    cache_key.mix("amplify-request");
    cache_key.mix(static_cast<std::uint64_t>(aopts.factor));
    cache_key.mix(aopts.seed);
    corpus::mixOptions(cache_key, topts);
    corpus::mixOptions(cache_key, corpus::amplifiedExtractOptions());
  }

  std::size_t component_count = 0;
  std::size_t functions = 0;
  std::size_t write_events = 0;
  std::vector<model::Dependency> deps;
  bool from_cache = false;
  if (disk.enabled()) {
    if (const std::optional<std::string> payload = disk.load(cache_key)) {
      const Result<json::Value> parsed = json::parse(*payload);
      if (parsed.ok() && parsed.value().isObject()) {
        const json::Object& object = parsed.value().asObject();
        const json::Value* cached_deps = object.find("deps");
        Result<std::vector<model::Dependency>> decoded =
            cached_deps != nullptr ? model::dependenciesFromJson(*cached_deps)
                                   : Result<std::vector<model::Dependency>>(
                                         makeError("missing deps"));
        if (decoded.ok() && object.contains("components") && object.contains("functions") &&
            object.contains("write_events")) {
          component_count = static_cast<std::size_t>(object.find("components")->asInt());
          functions = static_cast<std::size_t>(object.find("functions")->asInt());
          write_events = static_cast<std::size_t>(object.find("write_events")->asInt());
          deps = std::move(decoded).take();
          from_cache = true;
        }
      }
    }
  }

  const auto t0 = Clock::now();
  auto t1 = t0;
  auto t2 = t0;
  if (!from_cache) {
    const std::vector<std::string> names = [&] {
      obs::Span span("amplify", "generate");
      return corpus::amplifyCorpus(aopts);
    }();
    t1 = Clock::now();

    std::vector<std::unique_ptr<corpus::AnalyzedComponent>> components(names.size());
    {
      obs::Span span("amplify", "analyze");
      ThreadPool::parallelFor(names.size(), 0, [&](std::size_t i) {
        obs::Span component_span("pipeline", "analyze");
        component_span.arg("component", names[i]);
        auto component = std::make_unique<corpus::AnalyzedComponent>(names[i], topts);
        component->analyze({});
        components[i] = std::move(component);
      });
    }
    t2 = Clock::now();

    component_count = names.size();
    for (const auto& component : components) {
      functions += component->analyzer().results().size();
      write_events += component->analyzer().writeEvents().size();
    }
    deps = corpus::extractComponents(components, corpus::amplifiedExtractOptions(), "amplify");

    if (disk.enabled()) {
      json::Object payload;
      payload["components"] = static_cast<std::uint64_t>(component_count);
      payload["functions"] = static_cast<std::uint64_t>(functions);
      payload["write_events"] = static_cast<std::uint64_t>(write_events);
      payload["deps"] = model::toJson(deps);
      disk.store(cache_key, json::writeCompact(json::Value(std::move(payload))));
    }
  }
  const auto t3 = Clock::now();

  const double generate_ms = millisSince(t0, t1);
  const double analyze_ms = millisSince(t1, t2);
  const double extract_ms = millisSince(t2, t3);
  const double total_ms = millisSince(t0, t3);
  const bool over_budget = budget_ms > 0 && total_ms > static_cast<double>(budget_ms);
  const char* engine = topts.inter_procedural ? "inter" : "intra";

  {
    obs::RunReport& report = obs::RunReport::global();
    report.note("amplify_components", component_count);
    report.note("amplify_cached", static_cast<std::uint64_t>(from_cache));
    report.note("amplify_functions", functions);
    report.note("amplify_write_events", write_events);
    report.note("amplify_deps", deps.size());
    report.note("amplify_engine", engine);
  }

  if (hasFlag(args, "--json")) {
    json::Object root;
    root["factor"] = static_cast<std::uint64_t>(aopts.factor);
    root["seed"] = aopts.seed;
    root["engine"] = engine;
    root["components"] = static_cast<std::uint64_t>(component_count);
    root["functions"] = static_cast<std::uint64_t>(functions);
    root["write_events"] = static_cast<std::uint64_t>(write_events);
    root["dependencies"] = static_cast<std::uint64_t>(deps.size());
    root["generate_ms"] = generate_ms;
    root["analyze_ms"] = analyze_ms;
    root["extract_ms"] = extract_ms;
    root["total_ms"] = total_ms;
    root["budget_ms"] = budget_ms;
    root["within_budget"] = !over_budget;
    std::fputs(json::writePretty(root).c_str(), stdout);
  } else {
    std::printf("amplified corpus: factor %llu, seed %llu, engine %s\n",
                static_cast<unsigned long long>(aopts.factor),
                static_cast<unsigned long long>(aopts.seed), engine);
    std::printf("  components:   %zu\n", component_count);
    std::printf("  functions:    %zu\n", functions);
    std::printf("  write events: %zu\n", write_events);
    std::printf("  dependencies: %zu\n", deps.size());
    std::printf("  generate %.1f ms, analyze %.1f ms, extract %.1f ms (total %.1f ms)\n",
                generate_ms, analyze_ms, extract_ms, total_ms);
  }
  if (over_budget) {
    std::fprintf(stderr, "amplify: %.1f ms exceeds --budget-ms %llu, exiting 3\n", total_ms,
                 static_cast<unsigned long long>(budget_ms));
    return 3;
  }
  return 0;
}

int cmdServe(const std::vector<std::string>& args) {
  tools::ServeOptions options;
  options.socket_path = flagValue(args, "--socket", tools::defaultSocketPath());
  tools::ServeDaemon daemon(options);
  const Result<bool> started = daemon.start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.error().message.c_str());
    return 1;
  }
  std::printf("fsdep serve: listening on %s (send {\"type\":\"shutdown\"} to stop)\n",
              daemon.socketPath().c_str());
  std::fflush(stdout);
  daemon.wait();
  daemon.stop();
  std::printf("fsdep serve: shut down after %llu request(s)\n",
              static_cast<unsigned long long>(daemon.requestsServed()));
  return 0;
}

int cmdQuery(const std::vector<std::string>& args) {
  if (!knownArgs("query", args,
                 {"--inter", "--intra", "--legacy-walk", "--no-bridging", "--json", "--self-deps",
                  "--timing"},
                 {"--socket", "--type", "--scenario", "--param", "--raw"})) {
    return 2;
  }
  const std::string socket = flagValue(args, "--socket", tools::defaultSocketPath());

  const std::string raw = flagValue(args, "--raw", "");
  if (!raw.empty()) {
    const Result<std::string> response = tools::serveRoundTrip(socket, raw);
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.error().message.c_str());
      return 1;
    }
    std::printf("%s\n", response.value().c_str());
    return 0;
  }

  json::Object request;
  request["id"] = "cli";
  request["type"] = flagValue(args, "--type", "extract");
  const std::string scenario = flagValue(args, "--scenario", "");
  if (!scenario.empty()) request["scenario"] = scenario;
  const std::string param = flagValue(args, "--param", "");
  if (!param.empty()) request["param"] = param;
  if (hasFlag(args, "--inter")) request["inter"] = true;
  if (hasFlag(args, "--intra")) request["intra"] = true;
  if (hasFlag(args, "--legacy-walk")) request["legacy_walk"] = true;
  if (hasFlag(args, "--no-bridging")) request["no_bridging"] = true;
  if (hasFlag(args, "--json")) request["json"] = true;
  if (hasFlag(args, "--self-deps")) request["self_deps"] = true;

  const Result<tools::ServeResponse> result = tools::serveRequest(socket, request);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().message.c_str());
    return 1;
  }
  const tools::ServeResponse& response = result.value();
  if (!response.ok) {
    std::fprintf(stderr, "fsdep query: %s\n", response.error.c_str());
    return 1;
  }
  // Analysis responses already end in '\n' (they are the one-shot
  // command's stdout, printed verbatim); only bare strings like "pong"
  // get one appended.
  std::fputs(response.stdout_text.c_str(), stdout);
  if (!response.stdout_text.empty() && response.stdout_text.back() != '\n') {
    std::fputc('\n', stdout);
  }
  if (hasFlag(args, "--timing")) {
    std::fprintf(stderr, "query: %s in %llu us\n",
                 response.cached ? "cached" : "computed",
                 static_cast<unsigned long long>(response.wall_us));
  }
  obs::RunReport::global().note("query_cached", static_cast<std::uint64_t>(response.cached));
  obs::RunReport::global().note("query_wall_us", response.wall_us);
  return 0;
}

/// Dispatches one command (global flags already stripped from `args`).
int runCommand(const std::string& command, const std::vector<std::string>& args) {
  if (command == "extract") return cmdExtract(args);
  if (command == "serve") return cmdServe(args);
  if (command == "query") return cmdQuery(args);
  if (command == "amplify") return cmdAmplify(args);
  if (command == "table2") {
    std::fputs(study::formatTable2(study::runCoverageStudy()).c_str(), stdout);
    return 0;
  }
  if (command == "table3") {
    std::fputs(study::formatTable3().c_str(), stdout);
    return 0;
  }
  if (command == "table4") {
    std::fputs(study::formatTable4().c_str(), stdout);
    return 0;
  }
  if (command == "table5") {
    if (!knownArgs("table5", args, {"--inter", "--intra", "--legacy-walk"})) return 2;
    const corpus::Table5Result result = corpus::runTable5(taintOptionsFromFlags(args));
    obs::RunReport::global().note("unique_deps", result.unique_deps.size());
    std::fputs(corpus::formatTable5(result).c_str(), stdout);
    return 0;
  }
  if (command == "docck") {
    const tools::DocCheckReport report = tools::runCorpusDocCheck();
    std::printf("%s\n", report.summary().c_str());
    for (const tools::DocIssue& issue : report.issues) {
      std::printf("  [%s] %s\n", tools::docIssueKindName(issue.kind),
                  issue.explanation.c_str());
    }
    return 0;
  }
  if (command == "handleck") {
    const tools::HandleCheckReport report = tools::runCorpusHandleCheck();
    std::printf("%s\n", report.summary().c_str());
    for (const tools::HandleCase& c : report.cases) {
      if (c.outcome == tools::HandleOutcome::Corruption ||
          c.outcome == tools::HandleOutcome::SilentAccept) {
        std::printf("  [%s] %s\n      %s\n", tools::handleOutcomeName(c.outcome),
                    c.description.c_str(), c.detail.c_str());
      }
    }
    return 0;
  }
  if (command == "bugck") {
    const int runs = static_cast<int>(std::strtol(flagValue(args, "--runs", "100").c_str(),
                                                  nullptr, 10));
    const std::vector<model::Dependency> deps = corpus::runTable5().unique_deps;
    const tools::CampaignResult naive = tools::runCampaign(runs, false, deps);
    const tools::CampaignResult aware = tools::runCampaign(runs, true, deps);
    std::fputs(tools::formatCampaignComparison(naive, aware).c_str(), stdout);
    return 0;
  }
  if (command == "figure1") return cmdFigure1();
  if (command == "crashck") return cmdCrashCk(args);
  if (command == "campaign") return cmdCampaign(args);
  if (command == "xfs") {
    if (!knownArgs("xfs", args, {"--inter", "--intra", "--legacy-walk", "--json"})) return 2;
    const extract::ExtractOptions options = corpus::xfsExtractOptions();
    const auto deps =
        corpus::runScenario(corpus::xfsScenario(), taintOptionsFromFlags(args), &options);
    if (hasFlag(args, "--json")) {
      std::fputs(json::writePretty(model::toJson(deps)).c_str(), stdout);
    } else {
      for (const model::Dependency& dep : deps) std::printf("%s\n", dep.summary().c_str());
      std::printf("\n%zu dependencies extracted from the XFS ecosystem\n", deps.size());
    }
    return 0;
  }
  if (command == "bugs") {
    if (hasFlag(args, "--json")) {
      json::Array cases;
      for (const study::BugCase& bug : study::bugCases()) {
        json::Object o;
        o["id"] = bug.id;
        o["scenario"] = bug.scenario;
        o["title"] = bug.title;
        json::Array dep_ids;
        for (const std::string& id : bug.dependency_ids) dep_ids.emplace_back(id);
        o["dependencies"] = std::move(dep_ids);
        cases.push_back(std::move(o));
      }
      json::Object root;
      root["bugs"] = std::move(cases);
      std::fputs(json::writePretty(root).c_str(), stdout);
    } else {
      for (const study::BugCase& bug : study::bugCases()) {
        std::printf("%-12s [%s] %s\n", bug.id.c_str(), bug.scenario.c_str(),
                    bug.title.c_str());
      }
      std::printf("\n%zu bug cases\n", study::bugCases().size());
    }
    return 0;
  }
  if (command == "explain") {
    if (args.empty()) {
      std::fprintf(stderr, "explain: which parameter? (e.g. mke2fs.sparse_super2)\n");
      return 2;
    }
    const std::string& param = args[0];
    const corpus::Table5Result result = corpus::runTable5();
    const model::Parameter* registered = corpus::ecosystem().findParameter(param);
    if (registered != nullptr) {
      std::printf("%s  (%s, %s stage): %s\n\n", param.c_str(), registered->flag.c_str(),
                  model::configStageName(registered->stage), registered->description.c_str());
    } else {
      std::printf("%s  (not in the parameter registry)\n\n", param.c_str());
    }
    int shown = 0;
    for (const model::Dependency& dep : result.unique_deps) {
      if (dep.param != param && dep.other_param != param) continue;
      std::printf("  %s\n", dep.summary().c_str());
      for (const std::string& step : dep.trace) std::printf("      %s\n", step.c_str());
      ++shown;
    }
    bool documented = false;
    for (const corpus::ManualEntry& entry : corpus::allManuals()) {
      if (entry.claim.param == param || entry.claim.other_param == param) {
        std::printf("  manual: \"%s\"\n", entry.text.c_str());
        documented = true;
      }
    }
    if (shown == 0) std::puts("  no extracted dependencies involve this parameter");
    if (!documented) std::puts("  no manual claim mentions this parameter");
    return 0;
  }
  if (command == "graph") {
    const corpus::Table5Result result = corpus::runTable5();
    tools::GraphOptions options;
    options.include_self_deps = hasFlag(args, "--self-deps");
    std::fputs(tools::renderDependencyGraphDot(result.unique_deps, options).c_str(), stdout);
    return 0;
  }
  if (command == "check") return cmdCheck(args);
  if (command == "export-corpus") {
    if (args.empty()) {
      std::fprintf(stderr, "export-corpus: need a target directory\n");
      return 2;
    }
    const std::string dir = args[0];
    auto writeFile = [&](const std::string& name, std::string_view text) {
      const std::string out_path = dir + "/" + name;
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s (does the directory exist?)\n",
                     out_path.c_str());
        std::exit(1);
      }
      out << text;
      std::printf("wrote %s (%zu bytes)\n", out_path.c_str(), text.size());
    };
    for (const char* header : {"ext4_fs.h", "fsdep_libc.h", "xfs_fs.h", "btrfs_fs.h"}) {
      writeFile(header, *corpus::headerSource(header));
    }
    for (const auto& names : {corpus::componentNames(), corpus::xfsComponentNames(),
                              corpus::btrfsComponentNames()}) {
      for (const std::string& component : names) {
        writeFile(component + ".c", corpus::componentSource(component));
      }
    }
    return 0;
  }
  if (command == "dump-ast") return cmdDumpAst(args);
  if (command == "dump-cfg") return cmdDumpCfg(args);
  return usage();
}

/// Per-invocation observability session. start() flips tracing on when
/// requested; finish() records wall time / exit code and writes the
/// trace, profile, metrics and report files. Output files are written
/// even when the command fails — a failing run is exactly the one worth
/// studying.
class ObsSession {
 public:
  std::string trace_path;
  std::string metrics_path;
  std::string report_path;
  /// Profile destination; "" with profile_enabled means stdout (the
  /// `fsdep profile` subcommand).
  std::string profile_path;
  bool profile_enabled = false;
  obs::ProfileFormat profile_format = obs::ProfileFormat::Text;

  void start(const std::string& command, const std::vector<std::string>& args) {
    command_ = command;
    start_ = std::chrono::steady_clock::now();
    obs::RunReport& report = obs::RunReport::global();
    report.setCommand(command, args);
    report.setJobs(ThreadPool::globalJobs());
    if (!trace_path.empty() || profile_enabled) obs::Trace::start();
    // The root span makes the whole run attributable: everything the
    // command does nests under cli/<command>, so profile coverage is
    // the command span's share of measured wall time.
    if (profile_enabled) root_span_.emplace("cli", command_.c_str());
  }

  void finish(int exit_code) {
    root_span_.reset();  // close the root before measuring wall time
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
            .count();
    obs::RunReport& report = obs::RunReport::global();
    report.setWallMillis(wall_ms);
    report.setExitCode(exit_code);
    FSDEP_LOG_INFO("cli", "done in %.1f ms (exit %d)", wall_ms, exit_code);
    if (!trace_path.empty() || profile_enabled) {
      // One collection serves both outputs; no JSON round trip for the
      // profile.
      const std::vector<obs::TraceEvent> events = obs::Trace::stopEvents();
      report.setTraceDropped(obs::Trace::droppedEvents());
      if (!trace_path.empty() && !writeText(trace_path, obs::Trace::render(events))) {
        FSDEP_LOG_ERROR("cli", "cannot write trace file %s", trace_path.c_str());
      }
      if (profile_enabled) {
        const obs::Profile profile = obs::buildProfile(events, wall_ms, command_);
        const std::string text = obs::renderProfile(profile, profile_format);
        if (profile_path.empty()) {
          std::fputs(text.c_str(), stdout);
        } else if (!writeText(profile_path, text)) {
          FSDEP_LOG_ERROR("cli", "cannot write profile file %s", profile_path.c_str());
        }
      }
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (out) {
        out << obs::Registry::global().renderJson();
      } else {
        FSDEP_LOG_ERROR("cli", "cannot write metrics file %s", metrics_path.c_str());
      }
    }
    if (!report_path.empty() && !report.writeFile(report_path)) {
      FSDEP_LOG_ERROR("cli", "cannot write report file %s", report_path.c_str());
    }
  }

 private:
  static bool writeText(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    if (!out) return false;
    out << text;
    return static_cast<bool>(out);
  }

  std::string command_;
  /// Wraps the whole command; its name points into command_, which
  /// outlives it.
  std::optional<obs::Span> root_span_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  // Global options, accepted by every command and stripped before
  // dispatch. --jobs overrides the FSDEP_JOBS environment variable;
  // --stats prints pipeline perf counters to stderr on exit; --trace /
  // --metrics / --report write observability files; --log overrides the
  // FSDEP_LOG environment variable.
  struct StatsPrinter {
    bool enabled = false;
    ~StatsPrinter() {
      if (enabled) std::fputs(corpus::pipelineStatsSnapshot().format().c_str(), stderr);
    }
  } stats_printer;
  ObsSession obs;
  const char* env_cache_dir = std::getenv("FSDEP_CACHE_DIR");
  std::string cache_dir = env_cache_dir != nullptr ? env_cache_dir : "";
  bool no_cache = false;
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] == "--no-cache") {
      no_cache = true;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (args[i] == "--cache-dir" && i + 1 < args.size()) {
      cache_dir = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      continue;
    }
    if (args[i] == "--stats") {
      stats_printer.enabled = true;
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      continue;
    }
    if (args[i] == "--jobs" && i + 1 < args.size()) {
      const unsigned long jobs = std::strtoul(args[i + 1].c_str(), nullptr, 10);
      if (jobs == 0) {
        std::fprintf(stderr, "--jobs needs a positive integer, got '%s'\n",
                     args[i + 1].c_str());
        return 2;
      }
      ThreadPool::setGlobalJobs(static_cast<std::size_t>(jobs));
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      continue;
    }
    if ((args[i] == "--trace" || args[i] == "--metrics" || args[i] == "--report") &&
        i + 1 < args.size()) {
      std::string& path = args[i] == "--trace" ? obs.trace_path
                          : args[i] == "--metrics" ? obs.metrics_path
                                                   : obs.report_path;
      path = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      continue;
    }
    if (args[i] == "--profile" && i + 1 < args.size()) {
      obs.profile_enabled = true;
      obs.profile_path = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      continue;
    }
    if (args[i] == "--profile-format" && i + 1 < args.size()) {
      if (!obs::parseProfileFormat(args[i + 1], obs.profile_format)) {
        std::fprintf(stderr, "--profile-format wants text|json|folded, got '%s'\n",
                     args[i + 1].c_str());
        return 2;
      }
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      continue;
    }
    if (args[i] == "--log" && i + 1 < args.size()) {
      const obs::LogLevel parsed =
          obs::parseLogLevel(args[i + 1].c_str(), obs::LogLevel::Off);
      if (parsed == obs::LogLevel::Off && args[i + 1] != "off") {
        std::fprintf(stderr, "--log wants debug|info|warn|error|off, got '%s'\n",
                     args[i + 1].c_str());
        return 2;
      }
      obs::setLogLevel(parsed);
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      continue;
    }
    ++i;
  }

  // Cache wiring: --no-cache beats --cache-dir/FSDEP_CACHE_DIR and also
  // turns off in-process component reuse; otherwise a configured
  // directory enables the persistent result cache for every command.
  if (no_cache) {
    corpus::ComponentCache::global().setEnabled(false);
    cache_dir.clear();
  }
  if (!cache_dir.empty()) {
    corpus::DiskCache::global().configure({cache_dir});
    FSDEP_LOG_INFO("cli", "disk cache at %s", cache_dir.c_str());
  }

  // `fsdep profile [--format F] [--out FILE] [<command> [args...]]` is
  // sugar for running the wrapped command with profiling on; without
  // --out, the attribution goes to stdout after the command's output.
  std::string command_to_run = command;
  if (command == "profile") {
    obs.profile_enabled = true;
    for (std::size_t i = 0; i < args.size();) {
      if (args[i] == "--out" && i + 1 < args.size()) {
        obs.profile_path = args[i + 1];
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        continue;
      }
      if (args[i] == "--format" && i + 1 < args.size()) {
        if (!obs::parseProfileFormat(args[i + 1], obs.profile_format)) {
          std::fprintf(stderr, "profile: --format wants text|json|folded, got '%s'\n",
                       args[i + 1].c_str());
          return 2;
        }
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                   args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        continue;
      }
      ++i;
    }
    command_to_run = "table5";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i].rfind("--", 0) == 0) continue;
      command_to_run = args[i];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }

  obs.start(command_to_run, args);
  int code = 0;
  try {
    code = runCommand(command_to_run, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsdep: %s\n", e.what());
    FSDEP_LOG_ERROR("cli", "%s: %s", command_to_run.c_str(), e.what());
    code = 1;
  }
  obs.finish(code);
  return code;
}
