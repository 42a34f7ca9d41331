#include "tools/commands.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "ast/dump.h"
#include "ast/parser.h"
#include "corpus/amplify.h"
#include "corpus/pipeline.h"
#include "extract/scoring.h"
#include "fsim/defrag.h"
#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/resize.h"
#include "lex/preprocessor.h"
#include "model/serialization.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "study/bug_study.h"
#include "study/coverage.h"
#include "support/thread_pool.h"
#include "tools/campaign.h"
#include "tools/conbugck.h"
#include "tools/condocck.h"
#include "tools/conhandleck.h"
#include "tools/crashck.h"
#include "tools/depgraph.h"
#include "tools/serve.h"

namespace fsdep::tools {

const OptionSpec& Options::spec(std::size_t slot) const {
  return slot < groups_[0].size() ? groups_[0][slot] : groups_[1][slot - groups_[0].size()];
}

std::size_t Options::slot(std::string_view name) const {
  std::size_t slot = 0;
  while (slot < values_.size() && spec(slot).name != name) ++slot;
  return slot;
}

const std::string* Options::value(std::string_view name) const {
  const std::size_t i = slot(name);
  return i < values_.size() && values_[i] ? &*values_[i] : nullptr;
}

const std::string& Options::text(std::string_view name) const {
  static const std::string kUnset;
  const std::string* found = value(name);
  return found != nullptr ? *found : kUnset;
}

std::uint64_t Options::number(std::string_view name) const {
  return std::strtoull(text(name).c_str(), nullptr, 10);
}

std::vector<std::string> Options::all(std::string_view name) const {
  const std::size_t wanted = slot(name);
  std::vector<std::string> values;
  for (const auto& [i, value] : repeated_) {
    if (i == wanted) values.push_back(value);
  }
  return values;
}

namespace {

/// FSDEP_INTER (parity with FSDEP_JOBS): anything but "", "0", "false"
/// or "off" makes inter-procedural taint the default.
bool envInterDefault() {
  const char* env = std::getenv("FSDEP_INTER");
  if (env == nullptr) return false;
  const std::string_view value = env;
  return !(value.empty() || value == "0" || value == "false" || value == "off");
}

bool parseCount(std::string_view text, std::uint64_t& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// `--no-bridging` is request field `no_bridging`.
bool isField(std::string_view option, std::string_view field) {
  return option.size() == field.size() &&
         std::equal(option.begin(), option.end(), field.begin(),
                    [](char o, char f) { return o == '-' ? f == '_' : o == f; });
}

}  // namespace

/// Collects values against a command's spec (plus extra groups) from
/// either source, then applies fallbacks and resolves the engine group.
class OptionBinder {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  OptionBinder(const Command& command, std::span<const OptionSpec> extra) : command_(command) {
    options_.groups_[0] = command.options;
    options_.groups_[1] = extra;
    options_.values_.resize(command.options.size() + extra.size());
  }

  const OptionSpec& spec(std::size_t slot) const { return options_.spec(slot); }

  /// The slot of the first option `match` accepts (the command's before
  /// the extra ones), or kNone.
  template <typename Match>
  std::size_t find(Match match) const {
    for (std::size_t slot = 0; slot < options_.values_.size(); ++slot) {
      if (match(spec(slot))) return slot;
    }
    return kNone;
  }

  void set(std::size_t slot, std::string value) {
    if (spec(slot).repeatable) options_.repeated_.emplace_back(slot, value);
    options_.values_[slot] = std::move(value);
  }

  Result<Options> finish() {
    std::vector<std::optional<std::string>>& values = options_.values_;
    for (std::size_t slot = 0; slot < values.size(); ++slot) {
      const OptionSpec& option = spec(slot);
      if (values[slot]) continue;
      if (option.kind == OptionKind::Positional) {
        return makeError("missing <" + option.name + ">: " + option.help);
      }
      if (!option.fallback.empty()) values[slot] = option.fallback;
    }
    if (command_.engine != Engine::None) {
      const std::size_t inter = options_.slot("inter");
      const std::size_t intra = options_.slot("intra");
      const bool use_inter = !values[intra] && (values[inter] || command_.engine == Engine::Inter ||
                                                envInterDefault());
      values[use_inter ? inter : intra] = "";
      values[use_inter ? intra : inter].reset();
    }
    return std::move(options_);
  }

 private:
  const Command& command_;
  Options options_;
};

Result<Options> parseArgs(const Command& command, const std::vector<std::string>& args,
                          std::span<const OptionSpec> extra) {
  OptionBinder binder(command, extra);
  std::size_t positionals = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool flag = arg.starts_with("--");
    std::size_t skip = flag ? 0 : positionals++;
    const std::size_t slot = binder.find([&](const OptionSpec& s) {
      if (s.kind == OptionKind::Positional) return !flag && skip-- == 0;
      return flag && std::string_view(arg).substr(2) == s.name;
    });
    if (slot == OptionBinder::kNone) return makeError("unknown argument '" + arg + "'");
    const OptionKind kind = binder.spec(slot).kind;
    if (kind == OptionKind::Switch) {
      binder.set(slot, "");
      continue;
    }
    if (kind != OptionKind::Positional && ++i == args.size()) {
      return makeError(arg + " requires a value");
    }
    std::uint64_t count = 0;
    if (kind != OptionKind::Int) {
      binder.set(slot, args[i]);
    } else if (parseCount(args[i], count)) {
      binder.set(slot, std::to_string(count));
    } else {
      return makeError(arg + " expects an integer, got '" + args[i] + "'");
    }
  }
  return binder.finish();
}

Result<Options> bindRequest(const Command& command, const json::Object& request) {
  OptionBinder binder(command, {});
  for (const auto& [field, value] : request) {
    if (field == "id" || field == "type") continue;
    const std::size_t slot =
        binder.find([&](const OptionSpec& s) { return isField(s.name, field); });
    if (slot == OptionBinder::kNone) return makeError("unknown field '" + field + "'");
    const OptionKind kind = binder.spec(slot).kind;
    if (kind == OptionKind::Switch) {
      if (!value->isBool()) return makeError("field '" + field + "' must be a bool");
      if (value->asBool()) binder.set(slot, "");
    } else if (kind == OptionKind::Int) {
      if (!value->isInt() || value->asInt() < 0) {
        return makeError("field '" + field + "' must be a non-negative integer");
      }
      binder.set(slot, std::to_string(value->asInt()));
    } else if (value->isString()) {
      binder.set(slot, value->asString());
    } else {
      return makeError("field '" + field + "' must be a string");
    }
  }
  return binder.finish();
}

const Command* findCommand(std::string_view name) {
  for (const Command& command : commands()) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

namespace {

using Clock = std::chrono::steady_clock;

/// printf into a string: commands build their stdout instead of
/// printing it.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int n = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  if (n > 0) {
    const std::size_t size = out.size();
    out.resize(size + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + size, static_cast<std::size_t>(n) + 1, format, args);
    out.resize(size + static_cast<std::size_t>(n));
  }
  va_end(args);
}

CommandResult failure(const std::string& message, int exit_code = 2) {
  CommandResult result;
  result.err = message + "\n";
  result.exit_code = exit_code;
  return result;
}

taint::AnalysisOptions taintOptions(const Options& options) {
  taint::AnalysisOptions topts;
  topts.inter_procedural = options.on("inter");
  return topts;
}

/// Summary lines (with taint traces when `traces`) and a count trailer,
/// or the JSON serialization.
std::string renderDeps(const std::vector<model::Dependency>& deps, bool as_json, bool traces,
                       const std::string& trailer) {
  if (as_json) return json::writePretty(model::toJson(deps));
  std::string out;
  for (const model::Dependency& dep : deps) {
    out += dep.summary() + "\n";
    if (traces) {
      for (const std::string& step : dep.trace) out += "    " + step + "\n";
    }
  }
  appendf(out, "\n%zu dependencies extracted%s\n", deps.size(), trailer.c_str());
  return out;
}

/// True when a --fail-on class occurred in `report`: the run exits 3.
template <typename Report>
bool failOnHit(const FailOnSet& fail_on, const Report& report) {
  for (const CrashOutcome outcome :
       {CrashOutcome::NeedsRepair, CrashOutcome::SilentCorruption, CrashOutcome::DataLoss}) {
    if (fail_on.matches(outcome) && report.totalOf(outcome) > 0) return true;
  }
  return false;
}

/// The dependencies of the Ext4 scenarios s1..s4, deduplicated across
/// them (`extract --scenario all`).
std::vector<model::Dependency> extractAllScenarios(const taint::AnalysisOptions& topts,
                                                   std::size_t jobs) {
  return extract::dedupeAcrossScenarios(
      corpus::runScenarios(corpus::scenarios(), topts, nullptr, {jobs}));
}

CommandResult cmdExtract(const Options& options, const CommandContext& context) {
  taint::AnalysisOptions topts = taintOptions(options);
  topts.field_bridging = !options.on("no-bridging");
  const std::string& scenario_id = options.text("scenario");

  std::vector<model::Dependency> deps;
  if (scenario_id == "all") {
    deps = extractAllScenarios(topts, context.jobs);
  } else {
    const corpus::Scenario* scenario = corpus::findScenario(scenario_id);
    if (scenario == nullptr) return failure("unknown scenario '" + scenario_id + "'");
    deps = corpus::runScenario(*scenario, topts, nullptr, {context.jobs});
  }

  FSDEP_LOG_INFO("cli", "extract: %zu dependencies (scenario %s)", deps.size(),
                 scenario_id.c_str());
  CommandResult result{renderDeps(deps, options.on("json"), false, "")};
  result.facts["deps_extracted"] = static_cast<std::uint64_t>(deps.size());
  return result;
}

CommandResult cmdTable5(const Options& options, const CommandContext& context) {
  const corpus::Table5Result table =
      corpus::runTable5(taintOptions(options), nullptr, {context.jobs});
  CommandResult result{corpus::formatTable5(table)};
  result.out += "\nFalse positives with their ground-truth rationales:\n";
  for (const model::Dependency& fp : table.unique_score.false_positive_deps) {
    result.out += "  " + fp.summary() + "\n";
    for (const extract::GroundTruthEntry& entry : corpus::groundTruth()) {
      if (entry.dep.dedupKey() == fp.dedupKey() && !entry.fp_rationale.empty()) {
        result.out += "      rationale: " + entry.fp_rationale + "\n";
      }
    }
  }
  result.facts["unique_deps"] = static_cast<std::uint64_t>(table.unique_deps.size());
  return result;
}

/// DESIGN SS5's ablation: unique SD/CPD/CCD counts with metadata bridging
/// off, and with every function analyzed intra- and inter-procedurally.
CommandResult cmdAblation(const Options&, const CommandContext& context) {
  CommandResult result{"Ablation of the extraction design decisions (unique dependencies)\n\n"};
  const auto row = [&](const char* configuration, bool bridging, bool inter, bool all_functions) {
    taint::AnalysisOptions topts;
    topts.field_bridging = bridging;
    topts.inter_procedural = inter;
    std::vector<model::Dependency> deps;
    if (all_functions) {
      corpus::Scenario every_function;  // an empty function list analyzes them all
      every_function.id = "ablation";
      for (const std::string& name : corpus::componentNames()) every_function.selection[name] = {};
      deps = corpus::runScenario(every_function, topts, nullptr, {context.jobs});
    } else {
      deps = extractAllScenarios(topts, context.jobs);
    }
    int levels[3] = {0, 0, 0};
    for (const model::Dependency& dep : deps) ++levels[static_cast<int>(dep.level())];
    appendf(result.out, "%-52s | %4d %4d %4d\n", configuration, levels[0], levels[1], levels[2]);
  };
  appendf(result.out, "%-52s | %4s %4s %4s\n%s\n", "configuration", "SD", "CPD", "CCD",
          std::string(72, '-').c_str());
  row("paper prototype (intra, bridging, selected fns)", true, false, false);
  row("without metadata bridging", false, false, false);
  row("intra, all functions", true, false, true);
  row("inter-procedural, all functions (paper SS6)", true, true, true);
  result.out +=
      "\nExpected shape: bridging off -> CCD = 0; inter-procedural -> CCD grows\n"
      "(the accessor-shielded kernel feature checks become visible).\n";
  return result;
}

CommandResult cmdCrashCk(const Options& options, const CommandContext&) {
  CrashCkOptions crash_options;
  crash_options.seed = options.number("seed");
  crash_options.ops = options.all("op");
  const Result<FailOnSet> fail_on =
      options.on("fail-on") ? parseFailOn(options.text("fail-on")) : FailOnSet{};
  if (!fail_on.ok()) return failure("crashck: " + fail_on.error().message);
  const Result<CrashCkReport> run = tools::runCrashCk(crash_options);
  if (!run.ok()) return failure(run.error().message);
  const CrashCkReport& report = run.value();

  CommandResult result;
  result.facts["crashck_summary"] = report.summary();
  for (const auto& [fact, outcome] :
       {std::pair{"crashck_recovered", CrashOutcome::Recovered},
        std::pair{"crashck_needs_repair", CrashOutcome::NeedsRepair},
        std::pair{"crashck_silent_corruption", CrashOutcome::SilentCorruption},
        std::pair{"crashck_data_loss", CrashOutcome::DataLoss}}) {
    result.facts[fact] = static_cast<std::uint64_t>(report.totalOf(outcome));
  }
  result.exit_code = failOnHit(fail_on.value(), report) ? 3 : 0;

  if (options.on("json")) {
    json::Object root;
    root["seed"] = static_cast<std::uint64_t>(report.seed);
    json::Array ops;
    for (const CrashOpReport& r : report.ops) {
      json::Object o;
      o["op"] = r.op;
      o["total_writes"] = static_cast<std::uint64_t>(r.total_writes);
      json::Array points;
      for (const CrashPoint& p : r.points) {
        json::Object pt;
        pt["write_index"] = static_cast<std::uint64_t>(p.write_index);
        pt["control"] = p.control;
        pt["outcome"] = crashOutcomeName(p.outcome);
        pt["detail"] = p.detail;
        points.push_back(std::move(pt));
      }
      o["points"] = std::move(points);
      ops.push_back(std::move(o));
    }
    root["ops"] = std::move(ops);
    result.out = json::writePretty(root);
    return result;
  }

  appendf(result.out, "CrashCk: seed %llu\n\n", static_cast<unsigned long long>(report.seed));
  for (const CrashOpReport& r : report.ops) {
    appendf(result.out, "%-13s %3llu write(s)  %s\n", r.op.c_str(),
            static_cast<unsigned long long>(r.total_writes), r.histogram().c_str());
    for (const CrashPoint& p : r.points) {
      if (p.outcome == CrashOutcome::SilentCorruption || p.outcome == CrashOutcome::DataLoss) {
        appendf(result.out, "    write %3llu%s [%s] %s\n",
                static_cast<unsigned long long>(p.write_index), p.control ? " (control)" : "",
                crashOutcomeName(p.outcome), p.detail.c_str());
      }
    }
  }
  appendf(result.out, "\n%s\n", report.summary().c_str());
  if (result.exit_code != 0) result.err = "crashck: --fail-on outcome class present, exiting 3\n";
  return result;
}

CommandResult cmdCampaignReplay(const std::string& dir) {
  const Result<ReplayReport> replay = replayCampaignCorpus(dir);
  if (!replay.ok()) return failure(replay.error().message);
  const ReplayReport& report = replay.value();
  CommandResult result;
  for (const ReplayCase& c : report.cases) {
    appendf(result.out, "%-9s %s: recorded %s, replayed %s%s\n",
            c.outcome_match ? "MATCH" : "MISMATCH", c.file.c_str(),
            crashOutcomeName(c.recorded), crashOutcomeName(c.replayed),
            c.digest_match ? "" : " (digest drifted)");
  }
  appendf(result.out, "\nreplay: %s\n", report.summary().c_str());
  result.facts["campaign_replay"] = report.summary();
  result.exit_code = report.allMatch() ? 0 : 1;
  return result;
}

CommandResult cmdCampaign(const Options& options, const CommandContext& context) {
  const Result<FailOnSet> fail_on =
      options.on("fail-on") ? parseFailOn(options.text("fail-on")) : FailOnSet{};
  if (!fail_on.ok()) return failure("campaign: " + fail_on.error().message);
  if (options.on("replay")) return cmdCampaignReplay(options.text("replay"));
  CampaignOptions campaign;
  campaign.seed = options.number("seed");
  campaign.ops = options.all("op");
  campaign.max_configs = static_cast<std::size_t>(options.number("configs"));
  campaign.pairwise = !options.on("no-pairwise");
  campaign.max_crash_points = static_cast<std::size_t>(options.number("crash-points"));
  campaign.max_double_faults = static_cast<std::size_t>(options.number("double-faults"));
  campaign.minimize = !options.on("no-minimize");
  campaign.cell_retries = static_cast<std::uint32_t>(options.number("retries"));
  campaign.jobs = context.jobs;
  campaign.corpus_dir = options.text("corpus");

  const std::vector<model::Dependency> deps =
      corpus::runTable5({}, nullptr, {context.jobs}).unique_deps;
  const Result<CampaignReport> run = runMatrixCampaign(campaign, deps);
  if (!run.ok()) return failure(run.error().message);
  const CampaignReport& report = run.value();

  CommandResult result;
  json::Object& facts = result.facts;
  facts["campaign_summary"] = report.summary();
  facts["campaign_histogram"] = report.histogram();
  facts["campaign_cells"] = static_cast<std::uint64_t>(report.cells.size());
  facts["campaign_configs"] = static_cast<std::uint64_t>(report.configs.size());
  facts["campaign_unique_outcomes"] = report.unique_outcomes;
  facts["campaign_dedup_hits"] = report.dedup_hits;
  facts["campaign_minimizer_probes"] = report.minimizer_probes;
  facts["campaign_repros"] = static_cast<std::uint64_t>(report.repros.size());
  facts["campaign_silent_corruption"] =
      static_cast<std::uint64_t>(report.totalOf(CrashOutcome::SilentCorruption));
  facts["campaign_data_loss"] = static_cast<std::uint64_t>(report.totalOf(CrashOutcome::DataLoss));
  facts["campaign_failed_cells"] = static_cast<std::uint64_t>(report.totalFailed());

  const bool hit = failOnHit(fail_on.value(), report) ||
                   (fail_on.value().failed && report.totalFailed() > 0);
  result.exit_code = hit ? 3 : 0;
  result.out = options.on("json") ? json::writePretty(json::Value(report.toJson()))
                                  : report.renderText();
  if (result.exit_code != 0) result.err = "campaign: --fail-on outcome class present, exiting 3\n";
  return result;
}

CommandResult cmdFigure1(const Options&, const CommandContext&) {
  using namespace fsim;
  CommandResult result{"Reproducing the paper's Figure 1: sparse_super2 + resize2fs expansion\n\n"};
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
    if (!sb.ok()) return {result.out, "mkfs failed: " + sb.error().message + "\n", 1};
    Result<MountedFs> mounted = MountTool::mount(device, MountOptions{});
    if (mounted.ok()) {
      (void)mounted.value().createFile(8192, 2);
      mounted.value().unmount();
    }
    ResizeOptions ro;
    ro.new_size_blocks = 3072;
    ro.fix_sparse_super2_accounting = fixed;
    const Result<ResizeReport> resized = ResizeTool::resize(device, ro);
    if (!resized.ok()) return {result.out, "resize failed: " + resized.error().message + "\n", 1};
    const Result<FsckReport> fsck = FsckTool::check(device, FsckOptions{.force = true});
    appendf(result.out, "%s accounting: fsck reports %s\n", fixed ? "fixed " : "buggy ",
            fsck.ok() ? fsck.value().summary().c_str() : "error");
    if (fsck.ok()) {
      for (const FsckProblem& p : fsck.value().problems) {
        appendf(result.out, "    - %s\n", p.description.c_str());
      }
    }
  }
  return result;
}

/// The paper's Figure 2: one image driven through the four configuration
/// stages (create, mount, online, offline), printing the configuration
/// state each stage leaves in the superblock.
CommandResult cmdFigure2(const Options&, const CommandContext&) {
  using namespace fsim;
  CommandResult result{"Figure 2: the four configuration stages of an FS ecosystem\n\n"};
  std::string& out = result.out;
  BlockDevice device(16384, 1024);
  FsImage image(device);
  const auto stage = [&](const char* name, const char* utility, const std::string& effect) {
    const Superblock sb = image.loadSuperblock();
    appendf(out, "  %-8s | %-10s | blocks=%u free=%u inodes=%u mounts=%u state=%s%s\n", name,
            utility, sb.blocks_count, sb.free_blocks_count, sb.inodes_count, sb.mount_count,
            (sb.state & kStateValid) ? "clean" : "dirty", effect.c_str());
  };
  appendf(out, "  %-8s | %-10s | %s\n%s\n", "stage", "utility",
          "configuration state after the stage", std::string(96, '-').c_str());

  MkfsOptions mo;
  mo.block_size = 1024;
  mo.size_blocks = 4096;
  mo.blocks_per_group = 1024;
  mo.inode_ratio = 8192;
  mo.label = "fig2demo";
  const Result<Superblock> formatted = MkfsTool::format(device, mo);
  if (!formatted.ok()) return {out, "mkfs failed: " + formatted.error().message + "\n", 1};
  stage("create", "mke2fs", "");
  {
    // Mount and use: files appear, some of them fragmented.
    Result<MountedFs> mounted = MountTool::mount(device, MountOptions{});
    if (!mounted.ok()) return {out, "mount failed: " + mounted.error().message + "\n", 1};
    for (int i = 0; i < 4; ++i) (void)mounted.value().createFile(6144, 2);
    stage("mount", "mount", "");
    const Result<DefragReport> defrag = DefragTool::run(mounted.value(), device, DefragOptions{});
    if (!defrag.ok()) return {out, "defrag failed: " + defrag.error().message + "\n", 1};
    std::string effect;
    appendf(effect, " | defragmented %u files (avg extents %.2f -> %.2f)",
            defrag.value().defragmented, defrag.value().averageExtentsBefore(),
            defrag.value().averageExtentsAfter());
    stage("online", "e4defrag", effect);
    mounted.value().unmount();
  }
  ResizeOptions ro;
  ro.new_size_blocks = 6144;
  ro.fix_sparse_super2_accounting = true;
  const Result<ResizeReport> resized = ResizeTool::resize(device, ro);
  if (!resized.ok()) return {out, "resize failed: " + resized.error().message + "\n", 1};
  stage("offline", "resize2fs", "");
  const Result<FsckReport> fsck = FsckTool::check(device, FsckOptions{.force = true});
  stage("offline", "e2fsck", " | " + (fsck.ok() ? fsck.value().summary() : std::string("error")));
  out +=
      "\nEvery stage rewrote shared metadata that the next stage's configuration\n"
      "handling depends on — the structural root of cross-component dependencies.\n";
  return result;
}

CommandResult cmdDumpAst(const Options& options, const CommandContext&) {
  corpus::AnalyzedComponent component(options.text("component"), taint::AnalysisOptions{});
  return {ast::dumpTranslationUnit(component.tu())};
}

CommandResult cmdDumpCfg(const Options& options, const CommandContext&) {
  const std::string& name = options.text("component");
  const std::string& function = options.text("function");
  corpus::AnalyzedComponent component(name, taint::AnalysisOptions{});
  const ast::FunctionDecl* fn = component.tu().findFunction(function);
  if (fn == nullptr || !fn->isDefinition()) {
    return failure("no function '" + function + "' in " + name, 1);
  }
  return {cfg::Cfg::build(*fn)->dump()};
}

CommandResult cmdCheck(const Options& options, const CommandContext&) {
  const std::string& path = options.text("file");
  std::ifstream in(path);
  if (!in) return failure("check: cannot read " + path, 1);
  std::stringstream buffer;
  buffer << in.rdbuf();

  const std::string& component = options.text("component");

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
  if (diags.hasErrors()) return {"", diags.render(sm), 1};
  sema::Sema sema_obj(*tu, diags);
  sema_obj.run();

  taint::Analyzer analyzer(*tu, sema_obj, taintOptions(options));
  for (const std::string& spec : options.all("seed")) {  // fn:var:component.param
    const std::size_t c1 = spec.find(':');
    const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      return failure("check: bad --seed '" + spec + "' (want fn:var:component.param)");
    }
    analyzer.addSeed({spec.substr(0, c1), spec.substr(c1 + 1, c2 - c1 - 1),
                      spec.substr(c2 + 1)});
  }
  if (options.all("seed").empty()) {
    return failure("check: no --seed given; nothing to track.\n"
                   "       example: --seed main:blocksize:" + component + ".blocksize");
  }
  analyzer.run();

  extract::ExtractOptions eopts = corpus::extractOptions();
  eopts.metadata_owner = options.on("owner") ? options.text("owner") : component;
  const auto deps = extract::extractDependencies({{component, false, &analyzer, &sema_obj}}, eopts);
  return {renderDeps(deps, options.on("json"), true, " from " + path)};
}

/// The kernel-scale smoke: generate an amplified corpus, analyze every
/// synthetic component (all functions) across the thread pool, and
/// extract dependencies over the whole ecosystem. --budget-ms turns the
/// run into a CI wall-clock guard (exit 3 on overrun).
CommandResult cmdAmplify(const Options& options, const CommandContext& context) {
  corpus::AmplifyOptions aopts;
  aopts.factor = static_cast<std::size_t>(options.number("factor"));
  aopts.seed = options.number("seed");
  const std::uint64_t budget_ms = options.number("budget-ms");
  if (aopts.factor == 0) return failure("amplify: --factor must be positive");
  const taint::AnalysisOptions topts = taintOptions(options);
  // Analysis and extraction below run on the global pool.
  obs::Registry::global().gauge("pipeline.jobs").set(ThreadPool::globalJobs());

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
    // An entry that does not decode is a miss (and gets recomputed).
    from_cache = disk.load(cache_key, [&](std::string_view payload) {
      const Result<json::Value> parsed = json::parse(payload);
      if (!parsed.ok() || !parsed.value().isObject()) return false;
      const json::Object& object = parsed.value().asObject();
      const json::Value* cached_deps = object.find("deps");
      Result<std::vector<model::Dependency>> decoded =
          cached_deps != nullptr
              ? model::dependenciesFromJson(*cached_deps)
              : Result<std::vector<model::Dependency>>(makeError("missing deps"));
      if (!decoded.ok() || !object.contains("components") || !object.contains("functions") ||
          !object.contains("write_events")) {
        return false;
      }
      component_count = static_cast<std::size_t>(object.find("components")->asInt());
      functions = static_cast<std::size_t>(object.find("functions")->asInt());
      write_events = static_cast<std::size_t>(object.find("write_events")->asInt());
      deps = std::move(decoded).take();
      return true;
    }).has_value();
  }

  const auto t0 = Clock::now();
  auto t1 = t0;
  auto t2 = t0;
  std::vector<std::unique_ptr<corpus::AnalyzedComponent>> components;
  if (!from_cache) {
    const std::vector<std::string> names = [&] {
      obs::Span span("amplify", "generate");
      return corpus::amplifyCorpus(aopts);
    }();
    t1 = Clock::now();

    components.resize(names.size());
    {
      obs::Span span("amplify", "analyze");
      ThreadPool::parallelFor(names.size(), context.jobs, [&](std::size_t i) {
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
    deps = corpus::extractComponents(components, corpus::amplifiedExtractOptions(), "amplify",
                                     context.jobs);

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

  CommandResult result;
  result.facts["amplify_components"] = static_cast<std::uint64_t>(component_count);
  result.facts["amplify_cached"] = static_cast<std::uint64_t>(from_cache);
  result.facts["amplify_functions"] = static_cast<std::uint64_t>(functions);
  result.facts["amplify_write_events"] = static_cast<std::uint64_t>(write_events);
  result.facts["amplify_deps"] = static_cast<std::uint64_t>(deps.size());
  result.facts["amplify_engine"] = engine;

  if (options.on("json")) {
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
    result.out = json::writePretty(root);
  } else {
    appendf(result.out,
            "amplified corpus: factor %llu, seed %llu, engine %s\n  components:   %zu\n"
            "  functions:    %zu\n  write events: %zu\n  dependencies: %zu\n"
            "  generate %.1f ms, analyze %.1f ms, extract %.1f ms (total %.1f ms)\n",
            static_cast<unsigned long long>(aopts.factor),
            static_cast<unsigned long long>(aopts.seed), engine, component_count, functions,
            write_events, deps.size(), generate_ms, analyze_ms, extract_ms, total_ms);
  }
  if (over_budget) {
    appendf(result.err, "amplify: %.1f ms exceeds --budget-ms %llu, exiting 3\n", total_ms,
            static_cast<unsigned long long>(budget_ms));
    result.exit_code = 3;
  }
  {
    // Freeing the analyzed corpus (every component's analyzer) and the
    // dependency vector is a layer of its own, outside the timed phases.
    obs::Span span("amplify", "teardown");
    components.clear();
    deps.clear();
  }
  return result;
}

CommandResult cmdServe(const Options& options, const CommandContext& context) {
  ServeDaemon daemon(ServeOptions{options.text("socket"), context.jobs});
  const Result<bool> started = daemon.start();
  if (!started.ok()) return failure(started.error().message, 1);
  // The banner is the one output that cannot wait for the result: it
  // tells whoever reads stdout that the socket is up.
  std::printf("fsdep serve: listening on %s (send {\"type\":\"shutdown\"} to stop)\n",
              daemon.socketPath().c_str());
  std::fflush(stdout);
  daemon.wait();
  daemon.stop();
  const obs::Registry& registry = obs::Registry::global();
  const std::uint64_t requests = registry.counterSum("serve.requests");
  CommandResult result;
  appendf(result.out, "fsdep serve: shut down after %llu request(s)\n",
          static_cast<unsigned long long>(requests));
  result.facts["serve_requests"] = requests;
  result.facts["serve_memo_hits"] = registry.counterSum("serve.memo_hits");
  result.facts["serve_errors"] = registry.counterSum("serve.errors");
  return result;
}

/// Sends one request to a running daemon. `--type T` takes T's options
/// (parsed with T's spec by the CLI), which become the request fields.
CommandResult cmdQuery(const Options& options, const CommandContext&) {
  const std::string& socket = options.text("socket");
  if (!options.text("raw").empty()) {
    const Result<std::string> response = serveRoundTrip(socket, options.text("raw"));
    if (!response.ok()) return failure(response.error().message, 1);
    return {response.value() + "\n"};
  }

  json::Object request;
  request["id"] = "cli";
  request["type"] = options.text("type");
  if (const Command* served = servedCommand(options.text("type"))) {
    for (const OptionSpec& spec : served->options) {
      if (!options.on(spec.name)) continue;
      std::string name = spec.name;
      std::replace(name.begin(), name.end(), '-', '_');
      request[name] = spec.kind == OptionKind::Switch ? json::Value(true)
                      : spec.kind == OptionKind::Int  ? json::Value(options.number(spec.name))
                                                      : json::Value(options.text(spec.name));
    }
  }

  const Result<ServeResponse> sent = serveRequest(socket, request);
  if (!sent.ok()) return failure(sent.error().message, 1);
  const ServeResponse& response = sent.value();
  if (!response.ok) return failure("fsdep query: " + response.error, 1);
  // Analysis responses already end in '\n' (they are the one-shot
  // command's stdout, printed verbatim); only bare strings like "pong"
  // get one appended.
  CommandResult result{response.stdout_text};
  if (!result.out.empty() && result.out.back() != '\n') result.out.push_back('\n');
  if (options.on("timing")) {
    appendf(result.err, "query: %s in %llu us\n", response.cached ? "cached" : "computed",
            static_cast<unsigned long long>(response.wall_us));
  }
  result.facts["query_cached"] = static_cast<std::uint64_t>(response.cached);
  result.facts["query_wall_us"] = response.wall_us;
  return result;
}

CommandResult cmdDocCk(const Options&, const CommandContext&) {
  const DocCheckReport report = runCorpusDocCheck();
  std::string out = report.summary() + "\n";
  for (const DocIssue& issue : report.issues) {
    appendf(out, "  [%s] %s\n", docIssueKindName(issue.kind), issue.explanation.c_str());
  }
  return {std::move(out)};
}

CommandResult cmdHandleCk(const Options&, const CommandContext&) {
  const HandleCheckReport report = runCorpusHandleCheck();
  std::string out = report.summary() + "\n";
  for (const HandleCase& c : report.cases) {
    if (c.outcome == HandleOutcome::Corruption || c.outcome == HandleOutcome::SilentAccept) {
      appendf(out, "  [%s] %s\n      %s\n", handleOutcomeName(c.outcome), c.description.c_str(),
              c.detail.c_str());
    }
  }
  return {std::move(out)};
}

CommandResult cmdBugCk(const Options& options, const CommandContext& context) {
  const int runs = static_cast<int>(options.number("runs"));
  const std::vector<model::Dependency> deps =
      corpus::runTable5({}, nullptr, {context.jobs}).unique_deps;
  const CampaignResult naive = tools::runCampaign(runs, false, deps);
  const CampaignResult aware = tools::runCampaign(runs, true, deps);
  return {formatCampaignComparison(naive, aware)};
}

CommandResult cmdBugs(const Options& options, const CommandContext&) {
  if (!options.on("json")) {
    std::string out;
    for (const study::BugCase& bug : study::bugCases()) {
      appendf(out, "%-12s [%s] %s\n", bug.id.c_str(), bug.scenario.c_str(), bug.title.c_str());
    }
    appendf(out, "\n%zu bug cases\n", study::bugCases().size());
    return {std::move(out)};
  }
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
  return {json::writePretty(root)};
}

CommandResult cmdExplain(const Options& options, const CommandContext& context) {
  const std::string& param = options.text("param");
  const corpus::Table5Result table =
      corpus::runTable5(taintOptions(options), nullptr, {context.jobs});
  std::string out;
  const model::Parameter* registered = corpus::ecosystem().findParameter(param);
  if (registered != nullptr) {
    appendf(out, "%s  (%s, %s stage): %s\n\n", param.c_str(), registered->flag.c_str(),
            model::configStageName(registered->stage), registered->description.c_str());
  } else {
    appendf(out, "%s  (not in the parameter registry)\n\n", param.c_str());
  }
  int shown = 0;
  for (const model::Dependency& dep : table.unique_deps) {
    if (dep.param != param && dep.other_param != param) continue;
    out += "  " + dep.summary() + "\n";
    for (const std::string& step : dep.trace) out += "      " + step + "\n";
    ++shown;
  }
  bool documented = false;
  for (const corpus::ManualEntry& entry : corpus::allManuals()) {
    if (entry.claim.param == param || entry.claim.other_param == param) {
      out += "  manual: \"" + entry.text + "\"\n";
      documented = true;
    }
  }
  if (shown == 0) out += "  no extracted dependencies involve this parameter\n";
  if (!documented) out += "  no manual claim mentions this parameter\n";
  return {std::move(out)};
}

CommandResult cmdGraph(const Options& options, const CommandContext& context) {
  const corpus::Table5Result table =
      corpus::runTable5(taintOptions(options), nullptr, {context.jobs});
  GraphOptions graph;
  graph.include_self_deps = options.on("self-deps");
  return {renderDependencyGraphDot(table.unique_deps, graph)};
}

CommandResult cmdExportCorpus(const Options& options, const CommandContext&) {
  const std::string& dir = options.text("dir");
  CommandResult result;
  const auto writeFile = [&](const std::string& name, std::string_view text) {
    const std::string out_path = dir + "/" + name;
    std::ofstream out(out_path);
    if (!out) {
      result.err = "cannot write " + out_path + " (does the directory exist?)\n";
      result.exit_code = 1;
      return false;
    }
    out << text;
    appendf(result.out, "wrote %s (%zu bytes)\n", out_path.c_str(), text.size());
    return true;
  };
  if (!writeFile("fsdep_libc.h", *corpus::headerSource("fsdep_libc.h"))) return result;
  for (const corpus::FileSystem& fs : corpus::fileSystems()) {
    if (!writeFile(fs.header, fs.header_source)) return result;
    for (const corpus::Component& component : fs.components) {
      if (!writeFile(component.name + ".c", component.source)) return result;
    }
  }
  return result;
}

/// A command whose stdout is one rendered study table.
template <std::string (*render)()>
CommandResult cmdTable(const Options&, const CommandContext&) {
  return {render()};
}

std::string table2() { return study::formatTable2(study::runCoverageStudy()); }

OptionSpec sw(std::string name, std::string help) {
  return {std::move(name), OptionKind::Switch, "", std::move(help)};
}

OptionSpec str(std::string name, std::string metavar, std::string help,
               std::string fallback = "", bool repeatable = false) {
  return {std::move(name), OptionKind::String, std::move(metavar), std::move(help),
          std::move(fallback), repeatable};
}

OptionSpec num(std::string name, std::string metavar, std::string help, std::uint64_t fallback) {
  return {std::move(name), OptionKind::Int, std::move(metavar), std::move(help),
          std::to_string(fallback)};
}

OptionSpec pos(std::string name, std::string help) {
  return {std::move(name), OptionKind::Positional, "", std::move(help)};
}

Command command(std::string name, std::string summary, std::vector<OptionSpec> options,
                CommandResult (*run)(const Options&, const CommandContext&),
                Engine engine = Engine::None) {
  if (engine != Engine::None) {
    options.push_back(sw("inter", engine == Engine::Inter
                                      ? "inter-procedural taint (the default here)"
                                      : "inter-procedural taint (default: FSDEP_INTER env "
                                        "var, else intra)"));
    options.push_back(sw("intra", "force intra-procedural taint (beats --inter/FSDEP_INTER)"));
  }
  return Command{std::move(name), std::move(summary), std::move(options), engine, run};
}

}  // namespace

const std::vector<Command>& commands() {
  static const std::vector<Command> table = [] {
    const OptionSpec json = sw("json", "emit JSON instead of text");
    const OptionSpec fail_on =
        str("fail-on", "CLASSES",
            "exit 3 when any comma-separated class occurred (silent-corruption, data-loss, "
            "needs-repair; campaign also: failed)");
    const OptionSpec socket =
        str("socket", "PATH", "daemon socket (FSDEP_SOCKET sets the default)", defaultSocketPath());
    const CampaignOptions campaign;
    return std::vector<Command>{
        command("extract",
                "run the static analyzer over the corpus and print the extracted "
                "multi-level dependencies",
                {str("scenario", "ID", "analyze one scenario: s1..s4, xfs or btrfs", "all"),
                 sw("no-bridging", "disable metadata bridging (ablation)"), json},
                cmdExtract, Engine::EnvDefault),
        command("table2", "test-suite configuration coverage (paper Table 2)", {},
                cmdTable<table2>),
        command("table3", "bug-study distribution (paper Table 3)", {},
                cmdTable<study::formatTable3>),
        command("table4", "dependency taxonomy (paper Table 4)", {},
                cmdTable<study::formatTable4>),
        command("table5", "extraction evaluation (paper Table 5)", {}, cmdTable5,
                Engine::EnvDefault),
        command("ablation", "bridging and intra/inter-procedural ablation (DESIGN SS5)", {},
                cmdAblation),
        command("amplify",
                "generate a synthetic amplified corpus (deterministic, config-flow "
                "shaped) and analyze it end to end",
                {num("factor", "N", "synthetic components per real Ext4 component",
                     corpus::AmplifyOptions{}.factor),
                 num("seed", "S", "generator seed", corpus::AmplifyOptions{}.seed),
                 num("budget-ms", "M",
                     "exit 3 when the run exceeds M milliseconds; 0 = no budget", 0),
                 json},
                cmdAmplify, Engine::Inter),
        command("docck", "ConDocCk: manual-vs-code inconsistencies", {}, cmdDocCk),
        command("handleck", "ConHandleCk: dependency-violation campaign", {}, cmdHandleCk),
        command("bugck", "ConBugCk: dependency-aware config generation",
                {num("runs", "N", "generated configurations per generator", 100)}, cmdBugCk),
        command("figure1", "reproduce the sparse_super2 resize corruption", {}, cmdFigure1),
        command("figure2", "drive one image through the four configuration stages", {},
                cmdFigure2),
        command("crashck", "CrashCk: crash-point enumeration over the fsim tools",
                {str("op", "OP",
                     "mkfs, mount, resize, resize-buggy, defrag or tune (repeatable; "
                     "default: all)",
                     "", true),
                 num("seed", "S", "fault-schedule seed", CrashCkOptions{}.seed), json, fail_on},
                cmdCrashCk),
        command("campaign",
                "crash x fault x config matrix campaign with outcome dedup and ddmin "
                "schedule minimization",
                {num("seed", "S", "campaign seed", campaign.seed),
                 str("op", "OP", "restrict to one op (repeatable)", "", true),
                 num("configs", "N", "cap the sampled matrix; 0 = all", campaign.max_configs),
                 num("crash-points", "N", "crash cells per config x op",
                     campaign.max_crash_points),
                 num("double-faults", "N", "crash+transient cells per config x op",
                     campaign.max_double_faults),
                 sw("no-pairwise", "each-used-value sampling only"),
                 sw("no-minimize", "skip ddmin reproducer minimization"),
                 num("retries", "N", "per-cell retry budget", campaign.cell_retries),
                 str("corpus", "DIR", "persist minimized reproducers as a regression corpus"),
                 str("replay", "DIR", "replay a corpus directory instead of running"), json,
                 fail_on},
                cmdCampaign),
        command("serve",
                "long-running analysis daemon on a local Unix socket; answers "
                "newline-delimited JSON queries (see docs/serve.md)",
                {socket}, cmdServe),
        command("query",
                "send one request to a running `fsdep serve` and print its stdout "
                "(byte-identical to the one-shot command); takes the options of the "
                "command that answers T, positionals as flags (--param P)",
                {socket,
                 str("type", "T",
                     "extract|depgraph|docck|blame|ping|stats|invalidate|shutdown",
                     "extract"),
                 sw("timing", "print cached/computed and wall_us to stderr"),
                 str("raw", "JSON", "send a raw request line instead")},
                cmdQuery),
        command("bugs", "list the 67-case bug study dataset", {json}, cmdBugs),
        command("explain", "show everything known about one parameter",
                {pos("param", "the parameter, e.g. mke2fs.sparse_super2")}, cmdExplain,
                Engine::EnvDefault),
        command("graph", "emit the dependency graph as Graphviz dot",
                {sw("self-deps", "include SD nodes")}, cmdGraph, Engine::EnvDefault),
        command("check", "analyze YOUR C file",
                {pos("file", "the C file to analyze"),
                 str("seed", "FN:VAR:PARAM",
                     "taint seed, e.g. main:blocksize:tool.blocksize (repeatable)", "", true),
                 str("component", "NAME", "component name", "tool"),
                 str("owner", "NAME", "metadata owner (default: the component)"), json},
                cmdCheck, Engine::EnvDefault),
        command("export-corpus", "write the embedded corpus sources to disk",
                {pos("dir", "an existing target directory")}, cmdExportCorpus),
        command("dump-ast", "print the parsed AST of a corpus component",
                {pos("component", "e.g. mke2fs, mount, ext4")}, cmdDumpAst),
        command("dump-cfg", "print the CFG of one function",
                {pos("component", "e.g. resize2fs"), pos("function", "e.g. resize2fs_main")},
                cmdDumpCfg),
    };
  }();
  return table;
}

}  // namespace fsdep::tools
