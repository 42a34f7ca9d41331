#include "tools/campaign.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "fsim/defrag.h"
#include "fsim/digest.h"
#include "fsim/fsck.h"
#include "fsim/image.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/resize.h"
#include "fsim/tune.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/thread_pool.h"

namespace fsdep::tools {

using namespace fsim;

// --- Fault schedules ---------------------------------------------------

namespace {

/// What an event carries besides its kind.
enum class FaultValues : std::uint8_t { WriteIndex, BlockAndFailures };

/// One row per FaultEventKind: its name in a reproducer file, its tag in
/// a schedule summary and the values it carries.
struct FaultKindRow {
  FaultEventKind kind;
  const char* name;
  const char* tag;
  FaultValues values;
};

constexpr FaultKindRow kFaultKinds[] = {
    {FaultEventKind::CrashAtWrite, "crash-at-write", "crash", FaultValues::WriteIndex},
    {FaultEventKind::FailAfterWrites, "fail-after-writes", "dead", FaultValues::WriteIndex},
    {FaultEventKind::TransientWrite, "transient-write", "transient-write",
     FaultValues::BlockAndFailures},
    {FaultEventKind::TransientRead, "transient-read", "transient-read",
     FaultValues::BlockAndFailures},
};

const FaultKindRow& rowOf(FaultEventKind kind) {
  return *std::ranges::find(kFaultKinds, kind, &FaultKindRow::kind);
}

/// One row per value an event carries: its key and the kinds that carry it.
struct FaultValue {
  const char* key;
  FaultValues carried_by;
  std::uint64_t (*get)(const FaultEvent&);
  bool (*set)(FaultEvent&, std::uint64_t);  ///< false when the value does not fit
};

template <auto Member>
constexpr FaultValue faultValue(const char* key, FaultValues carried_by) {
  return {key, carried_by, [](const FaultEvent& e) -> std::uint64_t { return e.*Member; },
          [](FaultEvent& e, std::uint64_t value) {
            e.*Member = static_cast<std::remove_reference_t<decltype(e.*Member)>>(value);
            return e.*Member == value;
          }};
}

constexpr FaultValue kFaultValues[] = {
    faultValue<&FaultEvent::write_index>("write_index", FaultValues::WriteIndex),
    faultValue<&FaultEvent::block>("block", FaultValues::BlockAndFailures),
    faultValue<&FaultEvent::failures>("failures", FaultValues::BlockAndFailures),
};

constexpr const char* kKindKey = "kind";

}  // namespace

std::string FaultEvent::summary() const {
  const FaultKindRow& row = rowOf(kind);
  if (row.values == FaultValues::WriteIndex)
    return row.tag + ("@" + std::to_string(write_index));
  return row.tag + ("(b" + std::to_string(block) + " x" + std::to_string(failures) + ")");
}

fsim::FaultPlan compileFaultSchedule(const FaultSchedule& schedule, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  for (const FaultEvent& event : schedule) {
    switch (event.kind) {
      case FaultEventKind::CrashAtWrite:
        if (!plan.crash_at_write.has_value()) {
          plan.crash_at_write = event.write_index;
          plan.torn_mode = TornMode::Seeded;
        }
        break;
      case FaultEventKind::FailAfterWrites:
        if (!plan.fail_after_writes.has_value()) plan.fail_after_writes = event.write_index;
        break;
      case FaultEventKind::TransientWrite:
        plan.transients.push_back(TransientFault{event.block, event.failures, true});
        break;
      case FaultEventKind::TransientRead:
        plan.transients.push_back(TransientFault{event.block, event.failures, false});
        break;
    }
  }
  return plan;
}

std::string faultScheduleSummary(const FaultSchedule& schedule) {
  if (schedule.empty()) return "control";
  std::string text;
  for (const FaultEvent& event : schedule) {
    if (!text.empty()) text += " + ";
    text += event.summary();
  }
  return text;
}

json::Array faultScheduleToJson(const FaultSchedule& schedule) {
  json::Array events;
  for (const FaultEvent& event : schedule) {
    const FaultKindRow& row = rowOf(event.kind);
    json::Object obj;
    obj[kKindKey] = row.name;
    for (const FaultValue& value : kFaultValues) {
      if (value.carried_by == row.values) obj[value.key] = value.get(event);
    }
    events.emplace_back(std::move(obj));
  }
  return events;
}

Result<FaultSchedule> faultScheduleFromJson(const json::Value& value) {
  if (!value.isArray()) return makeError("campaign: fault schedule must be a JSON array");
  FaultSchedule schedule;
  for (const json::Value& item : value.asArray()) {
    if (!item.isObject()) return makeError("campaign: fault event must be a JSON object");
    const json::Object& obj = item.asObject();
    const json::Value* kind = obj.find(kKindKey);
    if (kind == nullptr || !kind->isString())
      return makeError(std::string("campaign: fault event is missing its '") + kKindKey + "'");
    const auto* row = std::ranges::find_if(
        kFaultKinds, [&](const FaultKindRow& r) { return kind->asString() == r.name; });
    if (row == std::end(kFaultKinds))
      return makeError("campaign: unknown fault event kind '" + kind->asString() + "'");
    FaultEvent event;
    event.kind = row->kind;
    for (const auto& [key, v] : obj) {
      if (key == kKindKey) continue;
      const auto* field = std::ranges::find_if(
          kFaultValues, [&](const FaultValue& f) { return key == f.key; });
      if (field == std::end(kFaultValues) || field->carried_by != row->values)
        return makeError("campaign: a " + kind->asString() + " event carries no '" + key + "'");
      if (!v->isInt())
        return makeError("campaign: fault event value '" + key + "' is not an integer");
      if (v->asInt() < 0 || !field->set(event, static_cast<std::uint64_t>(v->asInt())))
        return makeError("campaign: fault event value '" + key + "' does not fit its field");
    }
    schedule.push_back(event);
  }
  return schedule;
}

// --- Op table ----------------------------------------------------------

namespace {

constexpr std::uint32_t kCanaryBytes = 6144;

std::uint32_t resizeTargetFor(const GeneratedConfig& config) {
  return config.resize_target != 0 ? config.resize_target : config.mkfs.size_blocks + 1024;
}

/// Plants the canary file, deliberately fragmented (so defrag has work),
/// under default mount options: it is harness scaffolding, not part of
/// the op under test.
CrashCanary plantCampaignCanary(BlockDevice& device) {
  CrashCanary canary;
  Result<MountedFs> mounted = MountTool::mount(device, MountOptions{});
  if (!mounted.ok()) return canary;
  const Result<std::uint32_t> ino = mounted.value().createFile(kCanaryBytes, 2);
  if (ino.ok()) {
    canary.ino = ino.value();
    canary.size_bytes = kCanaryBytes;
  }
  mounted.value().unmount();
  return canary;
}

/// The set-up of every op but mkfs: format under the configuration, then
/// plant the canary. A configuration mkfs refuses fails the set-up; the
/// op would otherwise run on a blank device and be classified as a crash.
Result<CrashCanary> formatAndPlantCanary(BlockDevice& device, const GeneratedConfig& config) {
  const Result<Superblock> formatted = MkfsTool::format(device, config.mkfs);
  if (!formatted.ok()) return makeError("set-up refused: " + formatted.error().message);
  return plantCampaignCanary(device);
}

void runConfigResize(BlockDevice& device, const GeneratedConfig& config, bool fix) {
  ResizeOptions options;
  options.new_size_blocks = resizeTargetFor(config);
  options.fix_sparse_super2_accounting = fix;
  (void)ResizeTool::resize(device, options);
}

struct CampaignOpSpec {
  const char* name;
  /// Fault-free preparation; returns the canary (if any), or the error
  /// that refused it.
  Result<CrashCanary> (*setup)(BlockDevice&, const GeneratedConfig&);
  /// The operation whose writes are enumerated. Structured errors are
  /// expected (and ignored) once a fault fires.
  void (*run)(BlockDevice&, const GeneratedConfig&);
};

const std::vector<CampaignOpSpec>& campaignOpSpecs() {
  static const std::vector<CampaignOpSpec> specs = {
      {"mkfs",
       [](BlockDevice&, const GeneratedConfig&) -> Result<CrashCanary> { return CrashCanary{}; },
       [](BlockDevice& d, const GeneratedConfig& c) { (void)MkfsTool::format(d, c.mkfs); }},
      {"mount",
       formatAndPlantCanary,
       [](BlockDevice& d, const GeneratedConfig& c) {
         // One full journal-commit cycle: mount dirties the journal,
         // the file write mutates metadata, unmount commits.
         Result<MountedFs> mounted = MountTool::mount(d, c.mount);
         if (!mounted.ok()) return;
         (void)mounted.value().createFile(4096, 0);
         mounted.value().unmount();
       }},
      {"resize",
       formatAndPlantCanary,
       [](BlockDevice& d, const GeneratedConfig& c) { runConfigResize(d, c, /*fix=*/true); }},
      {"resize-buggy",
       formatAndPlantCanary,
       [](BlockDevice& d, const GeneratedConfig& c) { runConfigResize(d, c, /*fix=*/false); }},
      {"defrag",
       formatAndPlantCanary,
       [](BlockDevice& d, const GeneratedConfig& c) {
         Result<MountedFs> mounted = MountTool::mount(d, c.mount);
         if (!mounted.ok()) return;
         (void)DefragTool::run(mounted.value(), d, DefragOptions{});
         mounted.value().unmount();
       }},
      {"tune",
       formatAndPlantCanary,
       [](BlockDevice& d, const GeneratedConfig& c) { (void)TuneTool::tune(d, c.tune); }},
  };
  return specs;
}

const CampaignOpSpec* findCampaignSpec(const std::string& op) {
  for (const CampaignOpSpec& spec : campaignOpSpecs()) {
    if (op == spec.name) return &spec;
  }
  return nullptr;
}

/// Per-(config, op) RNG stream: schedules must not change when other
/// configs/ops are added, removed or reordered by the caller.
std::uint64_t cellSeed(std::uint64_t seed, std::size_t config_index, const std::string& op) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  for (const char c : op) mix(static_cast<std::uint8_t>(c));
  mix(config_index + 1);
  mix(seed);
  return h;
}

}  // namespace

std::vector<std::string> campaignOpNames() {
  std::vector<std::string> names;
  for (const CampaignOpSpec& spec : campaignOpSpecs()) names.emplace_back(spec.name);
  return names;
}

Result<std::uint64_t> opWriteCount(const GeneratedConfig& config, const std::string& op) {
  const CampaignOpSpec* spec = findCampaignSpec(op);
  if (spec == nullptr) return makeError("unknown operation '" + op + "'");
  BlockDevice device(deviceBlocksFor(config), deviceBlockSizeFor(config));
  const Result<CrashCanary> setup = spec->setup(device, config);
  if (!setup.ok()) return makeError(setup.error().message);
  const std::uint64_t setup_writes = device.writeCount();
  try {
    spec->run(device, config);
  } catch (const IoError&) {
  }
  return device.writeCount() - setup_writes;
}

// --- Cell execution ----------------------------------------------------

Result<CellOutcome> runCampaignCell(const GeneratedConfig& config, const std::string& op,
                                    const FaultSchedule& schedule, std::uint64_t seed) {
  const CampaignOpSpec* spec = findCampaignSpec(op);
  if (spec == nullptr) return makeError("campaign: unknown operation '" + op + "'");
  // The device's construction and release stay outside the stage spans,
  // so a cell's self time is what the device itself costs.
  BlockDevice device(deviceBlocksFor(config), deviceBlockSizeFor(config));
  CrashCanary canary;
  {
    obs::Span stage("campaign", "cell-setup");
    Result<CrashCanary> setup = spec->setup(device, config);
    if (!setup.ok()) return makeError(setup.error().message);
    canary = setup.value();
  }
  {
    obs::Span stage("campaign", "cell-op");
    if (!schedule.empty()) device.setFaultPlan(compileFaultSchedule(schedule, seed));
    try {
      spec->run(device, config);
    } catch (const IoError&) {
      // Tools return structured errors; this is the crash-trigger backstop.
    }
  }

  CellOutcome out;
  obs::Span stage("campaign", "cell-classify");
  device.clearFaults();  // the machine comes back up
  out.outcome = classifyPostCrashImage(device, canary, out.detail);
  out.digest = imageStateDigest(device);
  return out;
}

const char* cellStatusName(CellStatus status) {
  switch (status) {
    case CellStatus::Done: return "done";
    case CellStatus::Failed: return "failed";
  }
  return "?";
}

CellResult runCellWithRetry(const std::function<Result<CellOutcome>()>& cell,
                            std::uint32_t retries) {
  CellResult result;
  std::string last_error;
  for (std::uint32_t attempt = 1; attempt <= retries + 1; ++attempt) {
    result.attempts = attempt;
    try {
      Result<CellOutcome> run = cell();
      if (!run.ok()) {
        // A structured error is deterministic; retrying cannot help.
        result.status = CellStatus::Failed;
        result.detail = run.error().message;
        return result;
      }
      result.status = CellStatus::Done;
      result.outcome = run.value().outcome;
      result.digest = run.value().digest;
      result.detail = run.value().detail;
      return result;
    } catch (const std::exception& e) {
      last_error = e.what();
    } catch (...) {
      last_error = "non-standard exception";
    }
  }
  result.status = CellStatus::Failed;
  result.attempts = retries + 1;
  result.detail =
      "cell crashed after " + std::to_string(retries + 1) + " attempt(s): " + last_error;
  return result;
}

// --- Minimization ------------------------------------------------------

FaultSchedule minimizeSchedule(const FaultSchedule& schedule,
                               const std::function<bool(const FaultSchedule&)>& reproduces,
                               std::uint32_t& probes) {
  if (schedule.empty()) return schedule;

  // The cheapest possible result first: the op fails with no faults at
  // all (the completed-but-buggy resize of Figure 1).
  ++probes;
  if (reproduces(FaultSchedule{})) return FaultSchedule{};

  FaultSchedule current = schedule;
  std::size_t granularity = 2;
  while (current.size() >= 2) {
    const std::size_t n = std::min(granularity, current.size());
    const auto chunkBegin = [&](std::size_t i) { return i * current.size() / n; };
    bool reduced = false;

    // Try each chunk alone (reduce to subset).
    for (std::size_t i = 0; i < n && !reduced; ++i) {
      FaultSchedule candidate(current.begin() + static_cast<std::ptrdiff_t>(chunkBegin(i)),
                              current.begin() + static_cast<std::ptrdiff_t>(chunkBegin(i + 1)));
      if (candidate.size() == current.size() || candidate.empty()) continue;
      ++probes;
      if (reproduces(candidate)) {
        current = std::move(candidate);
        granularity = 2;
        reduced = true;
      }
    }
    // Try each complement (reduce by removing one chunk); for n == 2 the
    // complements are the subsets just tried.
    if (!reduced && n > 2) {
      for (std::size_t i = 0; i < n && !reduced; ++i) {
        FaultSchedule candidate;
        candidate.reserve(current.size());
        for (std::size_t j = 0; j < current.size(); ++j) {
          if (j < chunkBegin(i) || j >= chunkBegin(i + 1)) candidate.push_back(current[j]);
        }
        if (candidate.size() == current.size() || candidate.empty()) continue;
        ++probes;
        if (reproduces(candidate)) {
          current = std::move(candidate);
          granularity = std::max<std::size_t>(n - 1, 2);
          reduced = true;
        }
      }
    }
    if (!reduced) {
      if (n >= current.size()) break;
      granularity = std::min(current.size(), granularity * 2);
    }
  }
  return current;
}

// --- The campaign ------------------------------------------------------

Result<CampaignReport> runMatrixCampaign(const CampaignOptions& options,
                                         const std::vector<model::Dependency>& deps) {
  obs::Span span("campaign", "matrix-campaign");
  // A reproducer keeps the seed as a JSON integer, and replay refuses a
  // negative one.
  if (options.seed > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
    return makeError("campaign: seed " + std::to_string(options.seed) +
                     " does not fit a reproducer (at most 2^63 - 1)");
  CampaignReport report;
  report.seed = options.seed;

  const std::vector<std::string> known = campaignOpNames();
  if (options.ops.empty()) {
    report.ops = known;
  } else {
    for (const std::string& op : options.ops) {
      if (std::find(known.begin(), known.end(), op) == known.end())
        return makeError("campaign: unknown operation '" + op + "'");
    }
    report.ops = options.ops;
  }

  SamplingOptions sampling;
  sampling.max_configs = options.max_configs;
  report.configs = sampleConfigMatrix(sampling, deps);
  if (report.configs.empty()) return makeError("campaign: the configuration matrix is empty");

  const std::size_t n_configs = report.configs.size();
  const std::size_t n_ops = report.ops.size();
  obs::Registry& registry = obs::Registry::global();
  registry.gauge("campaign.configs").set(n_configs);

  // Phase 1 (parallel): fault-free write counts per (config, op); each
  // op's crash points are exactly 0 .. writes-1. A (config, op) whose
  // set-up is refused counts 0 writes: it gets only its control cell,
  // which fails with the set-up's error.
  std::vector<std::uint64_t> writes(n_configs * n_ops, 0);
  ThreadPool::parallelFor(n_configs * n_ops, options.jobs, [&](std::size_t i) {
    obs::Span plan_span("campaign", "plan-op");
    const std::string& op = report.ops[i % n_ops];
    plan_span.arg("op", op);
    const Result<std::uint64_t> count = opWriteCount(report.configs[i / n_ops].config, op);
    writes[i] = count.ok() ? count.value() : 0;
  });

  // Phase 2 (serial): schedule generation. Serial on purpose — the RNG
  // stream per (config, op) must not depend on worker interleaving.
  for (std::size_t ci = 0; ci < n_configs; ++ci) {
    for (std::size_t oi = 0; oi < n_ops; ++oi) {
      const std::uint64_t total = writes[ci * n_ops + oi];
      const GeneratedConfig& config = report.configs[ci].config;
      ConfigGenerator rng(cellSeed(options.seed, ci, report.ops[oi]));
      const auto push = [&](FaultSchedule schedule) {
        CampaignCell cell;
        cell.config_index = ci;
        cell.op = report.ops[oi];
        cell.schedule = std::move(schedule);
        report.cells.push_back(std::move(cell));
      };

      push({});  // control: the op under this config with no faults

      // Crash points spread across the write sequence.
      std::set<std::uint64_t> crash_points;
      const std::uint64_t k = std::min<std::uint64_t>(options.max_crash_points, total);
      for (std::uint64_t j = 0; j < k; ++j)
        crash_points.insert(total * (j + 1) / (k + 1));
      for (const std::uint64_t index : crash_points)
        push({FaultEvent{FaultEventKind::CrashAtWrite, index, 0, 0}});

      // Double faults: a transient media error racing the crash. The
      // failure count is one below, at or one above the device's retry
      // bound, so some transients are absorbed by retry and some surface.
      if (total > 0) {
        for (std::size_t j = 0; j < options.max_double_faults; ++j) {
          FaultEvent transient;
          transient.kind =
              j % 2 == 0 ? FaultEventKind::TransientWrite : FaultEventKind::TransientRead;
          transient.block =
              1 + rng.pick(std::min<std::uint32_t>(deviceBlocksFor(config) - 1, 255));
          transient.failures = BlockDevice::kMaxAttempts - 1 + rng.pick(3);
          FaultEvent crash;
          crash.kind = FaultEventKind::CrashAtWrite;
          crash.write_index = rng.pick(static_cast<std::uint32_t>(total));
          push({transient, crash});
        }
        // Device death halfway through the op.
        if (total >= 2)
          push({FaultEvent{FaultEventKind::FailAfterWrites, total / 2, 0, 0}});
      }
    }
  }
  FSDEP_LOG_INFO("campaign", "%zu config(s) x %zu op(s) -> %zu cell(s)", n_configs, n_ops,
                 report.cells.size());

  // Phase 3 (parallel): run every cell into its pre-sized slot.
  report.results.resize(report.cells.size());
  ThreadPool::parallelFor(report.cells.size(), options.jobs, [&](std::size_t i) {
    const CampaignCell& cell = report.cells[i];
    obs::Span cell_span("campaign", "cell");
    if (cell_span.active()) {
      cell_span.arg("op", cell.op);
      cell_span.arg("config", static_cast<std::uint64_t>(cell.config_index));
      cell_span.arg("schedule", faultScheduleSummary(cell.schedule));
    }
    const GeneratedConfig& config = report.configs[cell.config_index].config;
    CellResult result = runCellWithRetry(
        [&]() { return runCampaignCell(config, cell.op, cell.schedule, options.seed); },
        kCellRetries);
    registry.counter("campaign.cells", {{"op", cell.op}}).add();
    if (result.status == CellStatus::Done) {
      registry.counter("campaign.outcome", {{"outcome", crashOutcomeKey(result.outcome)}}).add();
    } else {
      registry.counter("campaign.failed_cells").add();
      FSDEP_LOG_WARN("campaign", "cell %zu (%s, config %zu) failed: %s", i, cell.op.c_str(),
                     cell.config_index, result.detail.c_str());
    }
    if (result.attempts > 1) registry.counter("campaign.cell_retries").add(result.attempts - 1);
    report.results[i] = std::move(result);
  });

  // Phase 4 (serial): dedup by (op, outcome, post-recovery digest) in
  // cell order, so the representative of each class is jobs-independent.
  std::map<std::tuple<std::string, int, std::uint64_t>, std::size_t> first_of;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    CellResult& result = report.results[i];
    if (result.status != CellStatus::Done) continue;
    const auto key = std::make_tuple(report.cells[i].op, static_cast<int>(result.outcome),
                                     result.digest);
    const auto [it, inserted] = first_of.try_emplace(key, i);
    if (!inserted) {
      result.duplicate = true;
      result.first_cell = it->second;
      ++report.dedup_hits;
    }
  }
  report.unique_outcomes = first_of.size();
  registry.counter("campaign.dedup_hits").add(report.dedup_hits);
  registry.gauge("campaign.unique_outcomes").set(report.unique_outcomes);

  // Phase 5 (serial): ddmin every unique failing class to a minimal
  // reproducer. Serial keeps probe counts deterministic.
  {
    obs::Span minimize_span("campaign", "minimize");
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const CellResult& result = report.results[i];
      if (result.status != CellStatus::Done || result.duplicate) continue;
      if (result.outcome != CrashOutcome::SilentCorruption &&
          result.outcome != CrashOutcome::DataLoss)
        continue;
      const CampaignCell& cell = report.cells[i];
      const GeneratedConfig& config = report.configs[cell.config_index].config;
      std::uint32_t probes = 0;
      const auto reproduces = [&](const FaultSchedule& candidate) {
        try {
          Result<CellOutcome> probe =
              runCampaignCell(config, cell.op, candidate, options.seed);
          return probe.ok() && probe.value().outcome == result.outcome &&
                 probe.value().digest == result.digest;
        } catch (...) {
          return false;
        }
      };
      MinimizedRepro repro;
      repro.cell_index = i;
      repro.config_index = cell.config_index;
      repro.op = cell.op;
      repro.schedule = minimizeSchedule(cell.schedule, reproduces, probes);
      repro.outcome = result.outcome;
      repro.digest = result.digest;
      repro.detail = result.detail;
      repro.ddmin_probes = probes;
      report.minimizer_probes += probes;
      report.repros.push_back(std::move(repro));
    }
    registry.counter("campaign.minimizer_probes").add(report.minimizer_probes);
    registry.counter("campaign.repros").add(report.repros.size());
  }

  // Phase 6: persist the regression corpus.
  if (!options.corpus_dir.empty()) {
    Result<std::vector<std::string>> persisted =
        persistCampaignCorpus(report, options.corpus_dir);
    if (!persisted.ok()) return makeError(persisted.error().message);
    FSDEP_LOG_INFO("campaign", "persisted %zu reproducer(s) under %s",
                   persisted.value().size(), options.corpus_dir.c_str());
  }

  FSDEP_LOG_INFO("campaign", "%s", report.summary().c_str());
  return report;
}

// --- Report rendering --------------------------------------------------

int CampaignReport::totalOf(CrashOutcome outcome) const {
  int n = 0;
  for (const CellResult& result : results)
    n += (result.status == CellStatus::Done && result.outcome == outcome) ? 1 : 0;
  return n;
}

int CampaignReport::totalFailed() const {
  int n = 0;
  for (const CellResult& result : results) n += result.status == CellStatus::Failed ? 1 : 0;
  return n;
}

std::string CampaignReport::histogram() const {
  return outcomeHistogram([this](CrashOutcome outcome) { return totalOf(outcome); }) + " " +
         cellStatusName(CellStatus::Failed) + "=" + std::to_string(totalFailed());
}

std::string CampaignReport::summary() const {
  return std::to_string(configs.size()) + " config(s) x " + std::to_string(ops.size()) +
         " op(s), " + std::to_string(cells.size()) + " cell(s): " + histogram() + "; " +
         std::to_string(unique_outcomes) + " unique outcome(s), " +
         std::to_string(dedup_hits) + " dedup hit(s), " + std::to_string(repros.size()) +
         " reproducer(s)";
}

std::string CampaignReport::renderText() const {
  std::string text = "campaign: seed " + std::to_string(seed) + ", " + summary() + "\n";

  text += "matrix:\n";
  for (std::size_t i = 0; i < configs.size(); ++i)
    text += "  [" + std::to_string(i) + "] (" + configs[i].origin + ") " + configs[i].label() +
            "\n";

  // Duplicate counts per representative cell.
  std::map<std::size_t, int> class_size;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& result = results[i];
    if (result.status != CellStatus::Done) continue;
    ++class_size[result.duplicate ? result.first_cell : i];
  }

  text += "unique outcomes:\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CellResult& result = results[i];
    if (result.status != CellStatus::Done || result.duplicate) continue;
    const CampaignCell& cell = cells[i];
    text += "  " + cell.op + " " + std::string(crashOutcomeKey(result.outcome)) + " digest " +
            digestHex(result.digest) + " x" + std::to_string(class_size[i]) + "  (cell #" +
            std::to_string(i) + ", config " + std::to_string(cell.config_index) + ", " +
            faultScheduleSummary(cell.schedule) + ")";
    if (!result.detail.empty()) text += "  -- " + result.detail;
    text += "\n";
  }

  bool any_failed = false;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].status != CellStatus::Failed) continue;
    if (!any_failed) {
      text += "failed cells:\n";
      any_failed = true;
    }
    text += "  cell #" + std::to_string(i) + " (" + cells[i].op + ", config " +
            std::to_string(cells[i].config_index) + ", " +
            faultScheduleSummary(cells[i].schedule) + ", " +
            std::to_string(results[i].attempts) + " attempt(s)): " + results[i].detail + "\n";
  }

  if (!repros.empty()) {
    text += "minimized reproducers (" + std::to_string(repros.size()) + "):\n";
    for (const MinimizedRepro& repro : repros)
      text += "  " + repro.op + " " + std::string(crashOutcomeKey(repro.outcome)) + " digest " +
              digestHex(repro.digest) + " config " + std::to_string(repro.config_index) + ": " +
              faultScheduleSummary(repro.schedule) + "  [" +
              std::to_string(repro.schedule.size()) + " event(s), " +
              std::to_string(repro.ddmin_probes) + " probe(s)]\n";
  }
  return text;
}

json::Object CampaignReport::toJson() const {
  json::Object root;
  root["kind"] = "campaign-report";
  root["version"] = kCampaignCorpusVersion;
  root["seed"] = static_cast<std::uint64_t>(seed);

  json::Array ops_json;
  for (const std::string& op : ops) ops_json.emplace_back(op);
  root["ops"] = std::move(ops_json);

  json::Array configs_json;
  for (const SampledConfig& config : configs) {
    json::Object obj;
    obj["origin"] = config.origin;
    obj["label"] = config.label();
    configs_json.emplace_back(std::move(obj));
  }
  root["configs"] = std::move(configs_json);

  {
    json::Object stats;
    stats["cells"] = static_cast<std::uint64_t>(cells.size());
    stats["recovered"] = static_cast<std::int64_t>(totalOf(CrashOutcome::Recovered));
    stats["needs_repair"] = static_cast<std::int64_t>(totalOf(CrashOutcome::NeedsRepair));
    stats["silent_corruption"] =
        static_cast<std::int64_t>(totalOf(CrashOutcome::SilentCorruption));
    stats["data_loss"] = static_cast<std::int64_t>(totalOf(CrashOutcome::DataLoss));
    stats["failed"] = static_cast<std::int64_t>(totalFailed());
    stats["unique_outcomes"] = static_cast<std::uint64_t>(unique_outcomes);
    stats["dedup_hits"] = static_cast<std::uint64_t>(dedup_hits);
    stats["minimizer_probes"] = static_cast<std::uint64_t>(minimizer_probes);
    root["stats"] = std::move(stats);
  }

  json::Array cells_json;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    json::Object obj;
    obj["config"] = static_cast<std::uint64_t>(cells[i].config_index);
    obj["op"] = cells[i].op;
    obj["schedule"] = faultScheduleToJson(cells[i].schedule);
    if (i < results.size()) {
      const CellResult& result = results[i];
      obj["status"] = cellStatusName(result.status);
      if (result.status == CellStatus::Done) {
        obj["outcome"] = crashOutcomeKey(result.outcome);
        obj["digest"] = digestHex(result.digest);
        obj["duplicate"] = result.duplicate;
        if (result.duplicate) obj["first_cell"] = static_cast<std::uint64_t>(result.first_cell);
      }
      obj["attempts"] = static_cast<std::uint64_t>(result.attempts);
      if (!result.detail.empty()) obj["detail"] = result.detail;
    }
    cells_json.emplace_back(std::move(obj));
  }
  root["cells"] = std::move(cells_json);

  json::Array repros_json;
  for (const MinimizedRepro& repro : repros)
    repros_json.emplace_back(reproToJson(repro, configs[repro.config_index].config, seed));
  root["repros"] = std::move(repros_json);
  return root;
}

// --- Regression corpus -------------------------------------------------

namespace {

constexpr const char* kReproKind = "campaign-repro";

/// A key of the reproducer envelope and the JSON type its value has.
struct EnvelopeKey {
  const char* key;
  bool (json::Value::*is)() const;
  const char* type;
};

/// Every top-level key reproToJson writes. The reader refuses any other
/// key and a value of another type, naming the key.
constexpr EnvelopeKey kEnvelopeKeys[] = {
    {"version", &json::Value::isInt, "an integer"},
    {"kind", &json::Value::isString, "a string"},
    {"op", &json::Value::isString, "a string"},
    {"outcome", &json::Value::isString, "a string"},
    {"digest", &json::Value::isString, "a string"},
    {"seed", &json::Value::isInt, "an integer"},
    {"detail", &json::Value::isString, "a string"},
    {"ddmin_probes", &json::Value::isInt, "an integer"},
    {"schedule", &json::Value::isArray, "an array"},
    {"config", &json::Value::isObject, "an object"},
};

}  // namespace

json::Object reproToJson(const MinimizedRepro& repro, const GeneratedConfig& config,
                         std::uint64_t seed) {
  json::Object doc;
  doc["version"] = kCampaignCorpusVersion;
  doc["kind"] = kReproKind;
  doc["op"] = repro.op;
  doc["outcome"] = crashOutcomeKey(repro.outcome);
  doc["digest"] = digestHex(repro.digest);
  doc["seed"] = static_cast<std::uint64_t>(seed);
  doc["detail"] = repro.detail;
  doc["ddmin_probes"] = static_cast<std::uint64_t>(repro.ddmin_probes);
  doc["schedule"] = faultScheduleToJson(repro.schedule);
  doc["config"] = generatedConfigToJson(config);
  return doc;
}

Result<std::vector<std::string>> persistCampaignCorpus(const CampaignReport& report,
                                                       const std::string& dir) {
  obs::Span span("campaign", "persist-corpus");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    return makeError("campaign: cannot create corpus dir '" + dir + "': " + ec.message());

  std::vector<std::string> paths;
  for (const MinimizedRepro& repro : report.repros) {
    const std::string hex = digestHex(repro.digest);
    const std::string name = "campaign-" + repro.op + "-" + crashOutcomeKey(repro.outcome) + "-" +
                             hex.substr(2) + ".json";
    const std::filesystem::path path = std::filesystem::path(dir) / name;
    const json::Object doc =
        reproToJson(repro, report.configs[repro.config_index].config, report.seed);
    std::ofstream out(path);
    out << json::writePretty(json::Value(doc));
    if (!out.good()) return makeError("campaign: cannot write '" + path.string() + "'");
    paths.push_back(path.string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Result<ReplayCase> replayCorpusDocument(const json::Value& doc, const std::string& file) {
  if (!doc.isObject()) return makeError(file + ": corpus document must be a JSON object");
  const json::Object& obj = doc.asObject();
  for (const auto& [key, value] : obj) {
    const auto* row = std::ranges::find_if(
        kEnvelopeKeys, [&](const EnvelopeKey& k) { return key == k.key; });
    if (row == std::end(kEnvelopeKeys))
      return makeError(file + ": unknown corpus key '" + key + "'");
    if (!((*value).*row->is)())
      return makeError(file + ": corpus value '" + key + "' is not " + row->type);
  }
  const json::Value* version = obj.find("version");
  if (version == nullptr || version->asInt() != kCampaignCorpusVersion)
    return makeError(file + ": unsupported corpus version (want " +
                     std::to_string(kCampaignCorpusVersion) + ")");
  if (const json::Value* kind = obj.find("kind"); kind != nullptr && kind->asString() != kReproKind)
    return makeError(file + ": corpus value 'kind' is '" + kind->asString() + "', not '" +
                     kReproKind + "'");

  const json::Value* op = obj.find("op");
  if (op == nullptr) return makeError(file + ": missing 'op'");
  const json::Value* outcome = obj.find("outcome");
  if (outcome == nullptr) return makeError(file + ": missing 'outcome'");
  const std::optional<CrashOutcome> recorded = crashOutcomeFromKey(outcome->asString());
  if (!recorded.has_value())
    return makeError(file + ": unknown outcome '" + outcome->asString() + "'");

  std::uint64_t recorded_digest = 0;
  if (const json::Value* digest = obj.find("digest")) {
    // Exactly what digestHex writes: 0x and 16 lowercase hex digits.
    const std::string& text = digest->asString();
    std::from_chars(text.data() + std::min<std::size_t>(2, text.size()),
                    text.data() + text.size(), recorded_digest, 16);
    if (digestHex(recorded_digest) != text)
      return makeError(file + ": corpus value 'digest' is not 0x and 16 lowercase hex digits");
  }

  std::uint64_t seed = 42;
  if (const json::Value* s = obj.find("seed")) {
    if (s->asInt() < 0) return makeError(file + ": corpus value 'seed' is negative");
    seed = static_cast<std::uint64_t>(s->asInt());
  }

  const json::Value* schedule_json = obj.find("schedule");
  if (schedule_json == nullptr) return makeError(file + ": missing 'schedule'");
  Result<FaultSchedule> schedule = faultScheduleFromJson(*schedule_json);
  if (!schedule.ok()) return makeError(file + ": " + schedule.error().message);

  const json::Value* config_json = obj.find("config");
  if (config_json == nullptr) return makeError(file + ": missing 'config'");
  Result<GeneratedConfig> config = generatedConfigFromJson(*config_json);
  if (!config.ok()) return makeError(file + ": " + config.error().message);

  Result<CellOutcome> replayed =
      runCampaignCell(config.value(), op->asString(), schedule.value(), seed);
  if (!replayed.ok()) return makeError(file + ": " + replayed.error().message);

  ReplayCase result;
  result.file = file;
  result.op = op->asString();
  result.recorded = *recorded;
  result.replayed = replayed.value().outcome;
  result.outcome_match = result.replayed == result.recorded;
  result.digest_match = replayed.value().digest == recorded_digest;
  result.detail = replayed.value().detail;
  return result;
}

bool ReplayReport::allMatch() const {
  for (const ReplayCase& c : cases) {
    if (!c.outcome_match) return false;
  }
  return !cases.empty();
}

std::string ReplayReport::summary() const {
  int outcome_matches = 0;
  int digest_matches = 0;
  for (const ReplayCase& c : cases) {
    outcome_matches += c.outcome_match ? 1 : 0;
    digest_matches += c.digest_match ? 1 : 0;
  }
  return std::to_string(cases.size()) + " case(s): " + std::to_string(outcome_matches) +
         " outcome match(es), " + std::to_string(digest_matches) + " digest match(es)" +
         (allMatch() ? "" : " -- MISMATCH");
}

Result<ReplayReport> replayCampaignCorpus(const std::string& dir) {
  obs::Span span("campaign", "replay-corpus");
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec))
    return makeError("campaign: corpus dir '" + dir + "' not found");

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      files.push_back(entry.path().string());
  }
  if (ec) return makeError("campaign: cannot list '" + dir + "': " + ec.message());
  if (files.empty()) return makeError("campaign: no *.json corpus files under '" + dir + "'");
  std::sort(files.begin(), files.end());

  ReplayReport report;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) return makeError("campaign: cannot read '" + file + "'");
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<json::Value> doc = json::parse(buffer.str());
    if (!doc.ok()) return makeError(file + ": " + doc.error().message);
    Result<ReplayCase> replayed = replayCorpusDocument(doc.value(), file);
    if (!replayed.ok()) return makeError(replayed.error().message);
    obs::Registry::global()
        .counter("campaign.replay",
                 {{"match", replayed.value().outcome_match ? "yes" : "no"}})
        .add();
    report.cases.push_back(std::move(replayed.value()));
  }
  return report;
}

// --- CI gating ---------------------------------------------------------

std::string failOnClasses(bool with_failed) {
  std::string classes;
  for (const CrashOutcomeRow& row : kCrashOutcomes) {
    if (row.outcome == CrashOutcome::Recovered) continue;
    if (!classes.empty()) classes += ", ";
    classes += row.key;
  }
  if (with_failed) classes += std::string(", ") + cellStatusName(CellStatus::Failed);
  return classes;
}

Result<FailOnSet> parseFailOn(const std::string& spec, bool with_failed) {
  FailOnSet set;
  bool any = false;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    std::string token = spec.substr(pos, end - pos);
    const std::size_t first = token.find_first_not_of(" \t");
    const std::size_t last = token.find_last_not_of(" \t");
    token = first == std::string::npos ? "" : token.substr(first, last - first + 1);
    if (!token.empty()) {
      any = true;
      const std::optional<CrashOutcome> outcome = crashOutcomeFromKey(token);
      if (with_failed && token == cellStatusName(CellStatus::Failed)) {
        set.failed = true;
      } else if (outcome.has_value() && *outcome != CrashOutcome::Recovered) {
        set.outcomes |= 1u << static_cast<unsigned>(*outcome);
      } else {
        return makeError("unknown --fail-on class '" + token +
                         "' (valid: " + failOnClasses(with_failed) + ")");
      }
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (!any) return makeError("--fail-on: empty class list");
  return set;
}

}  // namespace fsdep::tools
