// fsdep — command line front end. Every command is an entry of the
// command table (tools/commands.h): argv is parsed through the
// command's spec plus the global options below, the command runs, and
// its stdout, stderr, exit code and report facts are written here.
//
//   fsdep <command> [options]       (fsdep with no command lists them)
//   fsdep profile [--format F] [--out FILE] [<command> [args...]]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "corpus/pipeline.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "support/thread_pool.h"
#include "tools/commands.h"
#include "tools/serve.h"

namespace {

using namespace fsdep;
using tools::OptionKind;
using tools::OptionSpec;

/// Options every command accepts.
const std::vector<OptionSpec>& globalOptions() {
  static const std::vector<OptionSpec> options = {
      {"jobs", OptionKind::Int, "N", "N workers (default: FSDEP_JOBS env var, else all cores)"},
      {"stats", OptionKind::Switch, "", "print pipeline perf counters to stderr"},
      {"trace", OptionKind::String, "FILE", "write the spans as Chrome trace-event JSON"},
      {"metrics", OptionKind::String, "FILE", "dump the metrics registry as JSON"},
      {"report", OptionKind::String, "FILE", "write a JSON run report (metrics, facts)"},
      {"profile", OptionKind::String, "FILE", "write a wall-time attribution of the spans"},
      {"profile-format", OptionKind::String, "FMT", "text (default), json or folded"},
      {"log", OptionKind::String, "LEVEL", "debug|info|warn|error|off (default: FSDEP_LOG)"},
      {"cache-dir", OptionKind::String, "DIR", "on-disk result cache (default: FSDEP_CACHE_DIR)"},
      {"no-cache", OptionKind::Switch, "", "disable the disk cache and component reuse"},
  };
  return options;
}

/// `fsdep profile`'s own options.
const std::vector<OptionSpec>& profileOptions() {
  static const std::vector<OptionSpec> options = {
      {"format", OptionKind::String, "FMT", "text (default), json or folded"},
      {"out", OptionKind::String, "FILE", "write the attribution to FILE, not stdout"},
  };
  return options;
}

std::string optionLine(const OptionSpec& option, std::size_t indent) {
  std::string flag = option.kind == OptionKind::Positional ? "<" + option.name + ">"
                                                           : "--" + option.name;
  if (!option.metavar.empty()) flag += " " + option.metavar;
  flag.resize(std::max<std::size_t>(flag.size() + 1, 22), ' ');
  std::string line = std::string(indent, ' ') + flag + option.help;
  if (!option.fallback.empty()) line += " (default: " + option.fallback + ")";
  return line + "\n";
}

/// Usage rendered from the specs (bare `fsdep`); exit status 2.
int usage() {
  std::string text = "usage: fsdep <command> [options]\n\nglobal options (every command):\n";
  for (const OptionSpec& option : globalOptions()) text += optionLine(option, 2);
  text += "\ncommands:\n";
  const auto entry = [&text](const std::string& name, const std::string& summary,
                             const std::vector<OptionSpec>& options) {
    std::string head = "  " + name;
    head.resize(std::max<std::size_t>(head.size() + 1, 16), ' ');
    text += head + summary + "\n";
    for (const OptionSpec& option : options) text += optionLine(option, 16);
  };
  for (const tools::Command& command : tools::commands()) {
    entry(command.name, command.summary, command.options);
  }
  entry("profile",
        "run <command> (default: table5) under the profiler and print the attribution "
        "after its output",
        profileOptions());
  std::fputs(text.c_str(), stdout);
  return 2;
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
    if (!metrics_path.empty() && !writeText(metrics_path, obs::Registry::global().renderJson())) {
      FSDEP_LOG_ERROR("cli", "cannot write metrics file %s", metrics_path.c_str());
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
  std::string name = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  std::vector<OptionSpec> extra = globalOptions();
  ObsSession obs;

  // `fsdep profile [--format F] [--out FILE] [<command> [args...]]`
  // runs the wrapped command with profiling on; without --out the
  // attribution goes to stdout after the command's output.
  if (name == "profile") {
    extra.insert(extra.end(), profileOptions().begin(), profileOptions().end());
    obs.profile_enabled = true;
    name = "table5";
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (!args[i].starts_with("--")) {
        name = args[i];
        args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      const auto option = std::find_if(extra.begin(), extra.end(), [&](const OptionSpec& o) {
        return args[i] == "--" + o.name;
      });
      if (option != extra.end() && option->kind != OptionKind::Switch) ++i;
    }
  }
  const tools::Command* command = tools::findCommand(name);
  if (command == nullptr) {
    std::fprintf(stderr, "fsdep: unknown command '%s' (run fsdep alone for the list)\n",
                 name.c_str());
    return 2;
  }
  if (command->name == "query") {
    // `query --type T` also takes the options of the command answering
    // T (default extract), its positionals spelled as flags (--param P).
    const auto type = std::find(args.rbegin(), args.rend(), "--type");
    const bool given = type != args.rend() && type != args.rbegin();
    if (const tools::Command* served = tools::servedCommand(given ? *std::prev(type) : "extract")) {
      for (OptionSpec option : served->options) {
        if (option.kind == OptionKind::Positional) option.kind = OptionKind::String;
        extra.push_back(std::move(option));
      }
    }
  }

  const Result<tools::Options> parsed = tools::parseArgs(*command, args, extra);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), parsed.error().message.c_str());
    return 2;
  }
  const tools::Options& options = parsed.value();

  // Global options. --jobs overrides FSDEP_JOBS, --log overrides
  // FSDEP_LOG; --no-cache beats --cache-dir/FSDEP_CACHE_DIR and also
  // turns off in-process component reuse.
  if (options.on("jobs")) {
    if (options.number("jobs") == 0) {
      std::fprintf(stderr, "--jobs needs a positive integer, got '0'\n");
      return 2;
    }
    ThreadPool::setGlobalJobs(static_cast<std::size_t>(options.number("jobs")));
  }
  for (const char* flag : {"profile-format", "format"}) {
    if (options.on(flag) && !obs::parseProfileFormat(options.text(flag), obs.profile_format)) {
      std::fprintf(stderr, "--%s wants text|json|folded, got '%s'\n", flag,
                   options.text(flag).c_str());
      return 2;
    }
  }
  if (options.on("log")) {
    const obs::LogLevel level = obs::parseLogLevel(options.text("log").c_str(), obs::LogLevel::Off);
    if (level == obs::LogLevel::Off && options.text("log") != "off") {
      std::fprintf(stderr, "--log wants debug|info|warn|error|off, got '%s'\n",
                   options.text("log").c_str());
      return 2;
    }
    obs::setLogLevel(level);
  }
  obs.trace_path = options.text("trace");
  obs.metrics_path = options.text("metrics");
  obs.report_path = options.text("report");
  if (options.on("profile")) {
    obs.profile_enabled = true;
    obs.profile_path = options.text("profile");
  }
  if (options.on("out")) obs.profile_path = options.text("out");
  const char* env_cache_dir = std::getenv("FSDEP_CACHE_DIR");
  std::string cache_dir = options.on("cache-dir") ? options.text("cache-dir")
                          : env_cache_dir != nullptr ? env_cache_dir
                                                     : "";
  if (options.on("no-cache")) {
    corpus::ComponentCache::global().setEnabled(false);
    cache_dir.clear();
  }
  if (!cache_dir.empty()) {
    corpus::DiskCache::global().configure({cache_dir});
    FSDEP_LOG_INFO("cli", "disk cache at %s", cache_dir.c_str());
  }
  obs.start(name, args);
  tools::CommandResult result;
  try {
    result = command->run(options, tools::CommandContext{});
  } catch (const std::exception& e) {
    result.err = std::string("fsdep: ") + e.what() + "\n";
    result.exit_code = 1;
    FSDEP_LOG_ERROR("cli", "%s: %s", name.c_str(), e.what());
  }
  std::fwrite(result.out.data(), 1, result.out.size(), stdout);
  std::fwrite(result.err.data(), 1, result.err.size(), stderr);
  obs::RunReport& report = obs::RunReport::global();
  for (const auto& [key, value] : result.facts) {
    if (value->isString()) {
      report.note(key, value->asString());
    } else {
      report.note(key, static_cast<std::uint64_t>(value->asInt()));
    }
  }
  obs.finish(result.exit_code);
  if (options.on("stats")) std::fputs(corpus::pipelineStatsSnapshot().format().c_str(), stderr);
  return result.exit_code;
}
