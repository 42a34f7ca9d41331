#include "tools/campaign.h"

#include <algorithm>
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

const char* faultEventKindName(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::CrashAtWrite: return "crash-at-write";
    case FaultEventKind::FailAfterWrites: return "fail-after-writes";
    case FaultEventKind::TransientWrite: return "transient-write";
    case FaultEventKind::TransientRead: return "transient-read";
  }
  return "?";
}

std::optional<FaultEventKind> faultEventKindFromName(std::string_view name) {
  if (name == "crash-at-write") return FaultEventKind::CrashAtWrite;
  if (name == "fail-after-writes") return FaultEventKind::FailAfterWrites;
  if (name == "transient-write") return FaultEventKind::TransientWrite;
  if (name == "transient-read") return FaultEventKind::TransientRead;
  return std::nullopt;
}

std::string FaultEvent::summary() const {
  switch (kind) {
    case FaultEventKind::CrashAtWrite:
      return "crash@" + std::to_string(write_index);
    case FaultEventKind::FailAfterWrites:
      return "dead@" + std::to_string(write_index);
    case FaultEventKind::TransientWrite:
      return "transient-write(b" + std::to_string(block) + " x" + std::to_string(failures) + ")";
    case FaultEventKind::TransientRead:
      return "transient-read(b" + std::to_string(block) + " x" + std::to_string(failures) + ")";
  }
  return "?";
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
    json::Object obj;
    obj["kind"] = faultEventKindName(event.kind);
    switch (event.kind) {
      case FaultEventKind::CrashAtWrite:
      case FaultEventKind::FailAfterWrites:
        obj["write_index"] = static_cast<std::uint64_t>(event.write_index);
        break;
      case FaultEventKind::TransientWrite:
      case FaultEventKind::TransientRead:
        obj["block"] = static_cast<std::uint64_t>(event.block);
        obj["failures"] = static_cast<std::uint64_t>(event.failures);
        break;
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
    const json::Value* kind = obj.find("kind");
    if (kind == nullptr || !kind->isString())
      return makeError("campaign: fault event is missing its 'kind'");
    const std::optional<FaultEventKind> parsed = faultEventKindFromName(kind->asString());
    if (!parsed.has_value())
      return makeError("campaign: unknown fault event kind '" + kind->asString() + "'");
    FaultEvent event;
    event.kind = *parsed;
    if (const json::Value* v = obj.find("write_index"); v != nullptr && v->isInt())
      event.write_index = static_cast<std::uint64_t>(v->asInt());
    if (const json::Value* v = obj.find("block"); v != nullptr && v->isInt())
      event.block = static_cast<std::uint32_t>(v->asInt());
    if (const json::Value* v = obj.find("failures"); v != nullptr && v->isInt())
      event.failures = static_cast<std::uint32_t>(v->asInt());
    schedule.push_back(event);
  }
  return schedule;
}

// --- Outcome keys ------------------------------------------------------

namespace {

/// Lowercase stable identifiers (crashOutcomeName shouts for reports;
/// corpus files and metric labels want something greppable).
const char* outcomeKey(CrashOutcome outcome) {
  switch (outcome) {
    case CrashOutcome::Recovered: return "recovered";
    case CrashOutcome::NeedsRepair: return "needs-repair";
    case CrashOutcome::SilentCorruption: return "silent-corruption";
    case CrashOutcome::DataLoss: return "data-loss";
  }
  return "?";
}

std::optional<CrashOutcome> outcomeFromKey(std::string_view key) {
  if (key == "recovered") return CrashOutcome::Recovered;
  if (key == "needs-repair") return CrashOutcome::NeedsRepair;
  if (key == "silent-corruption") return CrashOutcome::SilentCorruption;
  if (key == "data-loss") return CrashOutcome::DataLoss;
  return std::nullopt;
}

}  // namespace

// --- Configuration JSON round-trip ------------------------------------

namespace {

const char* dataModeName(DataMode mode) {
  switch (mode) {
    case DataMode::Ordered: return "ordered";
    case DataMode::Journal: return "journal";
    case DataMode::Writeback: return "writeback";
  }
  return "ordered";
}

DataMode dataModeFromName(std::string_view name) {
  if (name == "journal") return DataMode::Journal;
  if (name == "writeback") return DataMode::Writeback;
  return DataMode::Ordered;
}

bool readBool(const json::Object& obj, const char* key, bool fallback) {
  const json::Value* v = obj.find(key);
  return (v != nullptr && v->isBool()) ? v->asBool() : fallback;
}

}  // namespace

json::Object generatedConfigToJson(const GeneratedConfig& config) {
  json::Object doc;
  {
    const MkfsOptions& m = config.mkfs;
    json::Object mkfs;
    mkfs["size_blocks"] = static_cast<std::uint64_t>(m.size_blocks);
    mkfs["block_size"] = static_cast<std::uint64_t>(m.block_size);
    mkfs["inode_size"] = static_cast<std::uint64_t>(m.inode_size);
    mkfs["inode_ratio"] = static_cast<std::uint64_t>(m.inode_ratio);
    mkfs["reserved_ratio"] = static_cast<std::uint64_t>(m.reserved_ratio);
    mkfs["blocks_per_group"] = static_cast<std::uint64_t>(m.blocks_per_group);
    mkfs["label"] = m.label;
    mkfs["sparse_super"] = m.sparse_super;
    mkfs["sparse_super2"] = m.sparse_super2;
    mkfs["resize_inode"] = m.resize_inode;
    mkfs["resize_limit_blocks"] = static_cast<std::uint64_t>(m.resize_limit_blocks);
    mkfs["meta_bg"] = m.meta_bg;
    mkfs["extents"] = m.extents;
    mkfs["has_64bit"] = m.has_64bit;
    mkfs["quota"] = m.quota;
    mkfs["has_journal"] = m.has_journal;
    mkfs["uninit_bg"] = m.uninit_bg;
    mkfs["metadata_csum"] = m.metadata_csum;
    mkfs["flex_bg"] = m.flex_bg;
    mkfs["inline_data"] = m.inline_data;
    mkfs["encrypt"] = m.encrypt;
    mkfs["bigalloc"] = m.bigalloc;
    mkfs["cluster_size"] = static_cast<std::uint64_t>(m.cluster_size);
    doc["mkfs"] = std::move(mkfs);
  }
  {
    const MountOptions& m = config.mount;
    json::Object mount;
    mount["read_only"] = m.read_only;
    mount["dax"] = m.dax;
    mount["data_mode"] = dataModeName(m.data_mode);
    mount["noload"] = m.noload;
    mount["commit_interval"] = static_cast<std::uint64_t>(m.commit_interval);
    mount["stripe"] = static_cast<std::uint64_t>(m.stripe);
    mount["inode_readahead_blks"] = static_cast<std::uint64_t>(m.inode_readahead_blks);
    mount["max_batch_time"] = static_cast<std::uint64_t>(m.max_batch_time);
    mount["min_batch_time"] = static_cast<std::uint64_t>(m.min_batch_time);
    mount["journal_checksum"] = m.journal_checksum;
    mount["journal_async_commit"] = m.journal_async_commit;
    mount["dioread_nolock"] = m.dioread_nolock;
    mount["delalloc"] = m.delalloc;
    mount["auto_da_alloc"] = m.auto_da_alloc;
    doc["mount"] = std::move(mount);
  }
  {
    const TuneOptions& t = config.tune;
    json::Object tune;
    if (t.has_journal.has_value()) tune["has_journal"] = *t.has_journal;
    if (t.metadata_csum.has_value()) tune["metadata_csum"] = *t.metadata_csum;
    if (t.uninit_bg.has_value()) tune["uninit_bg"] = *t.uninit_bg;
    if (t.quota.has_value()) tune["quota"] = *t.quota;
    if (t.sparse_super2.has_value()) tune["sparse_super2"] = *t.sparse_super2;
    if (t.max_mount_count.has_value())
      tune["max_mount_count"] = static_cast<std::uint64_t>(*t.max_mount_count);
    if (t.reserved_blocks_count.has_value())
      tune["reserved_blocks_count"] = static_cast<std::uint64_t>(*t.reserved_blocks_count);
    if (t.label.has_value()) tune["label"] = *t.label;
    doc["tune"] = std::move(tune);
  }
  doc["resize_target"] = static_cast<std::uint64_t>(config.resize_target);
  return doc;
}

Result<GeneratedConfig> generatedConfigFromJson(const json::Value& value) {
  if (!value.isObject()) return makeError("campaign: config must be a JSON object");
  const json::Object& doc = value.asObject();
  GeneratedConfig config;
  // Reads an integer into its field's type; bad_key keeps the first
  // value that does not fit.
  const char* bad_key = nullptr;
  const auto readUint = [&bad_key]<typename T>(const json::Object& obj, const char* key,
                                                T fallback) {
    const json::Value* v = obj.find(key);
    if (v == nullptr || !v->isInt()) return fallback;
    const std::int64_t n = v->asInt();
    if (n >= 0 && static_cast<std::uint64_t>(n) <= std::numeric_limits<T>::max()) {
      return static_cast<T>(n);
    }
    if (bad_key == nullptr) bad_key = key;
    return fallback;
  };
  if (const json::Value* v = doc.find("mkfs"); v != nullptr && v->isObject()) {
    const json::Object& obj = v->asObject();
    MkfsOptions& m = config.mkfs;
    m.size_blocks = readUint(obj, "size_blocks", m.size_blocks);
    m.block_size = readUint(obj, "block_size", m.block_size);
    m.inode_size = readUint(obj, "inode_size", m.inode_size);
    m.inode_ratio = readUint(obj, "inode_ratio", m.inode_ratio);
    m.reserved_ratio = readUint(obj, "reserved_ratio", m.reserved_ratio);
    m.blocks_per_group = readUint(obj, "blocks_per_group", m.blocks_per_group);
    if (const json::Value* s = obj.find("label"); s != nullptr && s->isString())
      m.label = s->asString();
    m.sparse_super = readBool(obj, "sparse_super", m.sparse_super);
    m.sparse_super2 = readBool(obj, "sparse_super2", m.sparse_super2);
    m.resize_inode = readBool(obj, "resize_inode", m.resize_inode);
    m.resize_limit_blocks = readUint(obj, "resize_limit_blocks", m.resize_limit_blocks);
    m.meta_bg = readBool(obj, "meta_bg", m.meta_bg);
    m.extents = readBool(obj, "extents", m.extents);
    m.has_64bit = readBool(obj, "has_64bit", m.has_64bit);
    m.quota = readBool(obj, "quota", m.quota);
    m.has_journal = readBool(obj, "has_journal", m.has_journal);
    m.uninit_bg = readBool(obj, "uninit_bg", m.uninit_bg);
    m.metadata_csum = readBool(obj, "metadata_csum", m.metadata_csum);
    m.flex_bg = readBool(obj, "flex_bg", m.flex_bg);
    m.inline_data = readBool(obj, "inline_data", m.inline_data);
    m.encrypt = readBool(obj, "encrypt", m.encrypt);
    m.bigalloc = readBool(obj, "bigalloc", m.bigalloc);
    m.cluster_size = readUint(obj, "cluster_size", m.cluster_size);
  }
  if (const json::Value* v = doc.find("mount"); v != nullptr && v->isObject()) {
    const json::Object& obj = v->asObject();
    MountOptions& m = config.mount;
    m.read_only = readBool(obj, "read_only", m.read_only);
    m.dax = readBool(obj, "dax", m.dax);
    if (const json::Value* s = obj.find("data_mode"); s != nullptr && s->isString())
      m.data_mode = dataModeFromName(s->asString());
    m.noload = readBool(obj, "noload", m.noload);
    m.commit_interval = readUint(obj, "commit_interval", m.commit_interval);
    m.stripe = readUint(obj, "stripe", m.stripe);
    m.inode_readahead_blks = readUint(obj, "inode_readahead_blks", m.inode_readahead_blks);
    m.max_batch_time = readUint(obj, "max_batch_time", m.max_batch_time);
    m.min_batch_time = readUint(obj, "min_batch_time", m.min_batch_time);
    m.journal_checksum = readBool(obj, "journal_checksum", m.journal_checksum);
    m.journal_async_commit = readBool(obj, "journal_async_commit", m.journal_async_commit);
    m.dioread_nolock = readBool(obj, "dioread_nolock", m.dioread_nolock);
    m.delalloc = readBool(obj, "delalloc", m.delalloc);
    m.auto_da_alloc = readBool(obj, "auto_da_alloc", m.auto_da_alloc);
  }
  if (const json::Value* v = doc.find("tune"); v != nullptr && v->isObject()) {
    const json::Object& obj = v->asObject();
    TuneOptions& t = config.tune;
    if (const json::Value* b = obj.find("has_journal"); b != nullptr && b->isBool())
      t.has_journal = b->asBool();
    if (const json::Value* b = obj.find("metadata_csum"); b != nullptr && b->isBool())
      t.metadata_csum = b->asBool();
    if (const json::Value* b = obj.find("uninit_bg"); b != nullptr && b->isBool())
      t.uninit_bg = b->asBool();
    if (const json::Value* b = obj.find("quota"); b != nullptr && b->isBool())
      t.quota = b->asBool();
    if (const json::Value* b = obj.find("sparse_super2"); b != nullptr && b->isBool())
      t.sparse_super2 = b->asBool();
    if (const json::Value* n = obj.find("max_mount_count"); n != nullptr && n->isInt())
      t.max_mount_count = readUint(obj, "max_mount_count", std::uint16_t{0});
    if (const json::Value* n = obj.find("reserved_blocks_count"); n != nullptr && n->isInt())
      t.reserved_blocks_count = readUint(obj, "reserved_blocks_count", std::uint32_t{0});
    if (const json::Value* s = obj.find("label"); s != nullptr && s->isString())
      t.label = s->asString();
  }
  config.resize_target = readUint(doc, "resize_target", config.resize_target);
  if (bad_key != nullptr) {
    return makeError(std::string("campaign: config value '") + bad_key +
                     "' does not fit its field");
  }
  return config;
}

// --- Op table ----------------------------------------------------------

namespace {

constexpr std::uint32_t kCanaryBytes = 6144;

std::uint32_t deviceBlockSizeFor(const GeneratedConfig& config) {
  const std::uint32_t bs = config.mkfs.block_size;
  const bool pow2 = bs >= 512 && bs <= (1u << 16) && (bs & (bs - 1)) == 0;
  return pow2 ? bs : 1024;
}

std::uint32_t deviceBlocksFor(const GeneratedConfig& config) {
  // In 64 bits, clamped to a 32-bit block count: a replayed size may sit
  // anywhere below 2^32.
  const std::uint64_t fs = std::max(config.mkfs.size_blocks, config.resize_target);
  return static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(fs + 2048, 8192, std::numeric_limits<std::uint32_t>::max()));
}

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
  try {
    device.resetStats();
    spec->run(device, config);
  } catch (const IoError&) {
  }
  return device.writeCount();
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
  sampling.each_used_value = true;
  sampling.pairwise = options.pairwise;
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
        options.cell_retries);
    registry.counter("campaign.cells", {{"op", cell.op}}).add();
    if (result.status == CellStatus::Done) {
      registry.counter("campaign.outcome", {{"outcome", outcomeKey(result.outcome)}}).add();
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
  if (options.minimize) {
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
  return "recovered=" + std::to_string(totalOf(CrashOutcome::Recovered)) +
         " needs-repair=" + std::to_string(totalOf(CrashOutcome::NeedsRepair)) +
         " silent-corruption=" + std::to_string(totalOf(CrashOutcome::SilentCorruption)) +
         " data-loss=" + std::to_string(totalOf(CrashOutcome::DataLoss)) +
         " failed=" + std::to_string(totalFailed());
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
    text += "  " + cell.op + " " + std::string(outcomeKey(result.outcome)) + " digest " +
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
      text += "  " + repro.op + " " + std::string(outcomeKey(repro.outcome)) + " digest " +
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
        obj["outcome"] = outcomeKey(result.outcome);
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

json::Object reproToJson(const MinimizedRepro& repro, const GeneratedConfig& config,
                         std::uint64_t seed) {
  json::Object doc;
  doc["version"] = kCampaignCorpusVersion;
  doc["kind"] = "campaign-repro";
  doc["op"] = repro.op;
  doc["outcome"] = outcomeKey(repro.outcome);
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
    const std::string name = "campaign-" + repro.op + "-" + outcomeKey(repro.outcome) + "-" +
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
  const json::Value* version = obj.find("version");
  if (version == nullptr || !version->isInt() || version->asInt() != kCampaignCorpusVersion)
    return makeError(file + ": unsupported corpus version (want " +
                     std::to_string(kCampaignCorpusVersion) + ")");

  const json::Value* op = obj.find("op");
  if (op == nullptr || !op->isString()) return makeError(file + ": missing 'op'");
  const json::Value* outcome = obj.find("outcome");
  if (outcome == nullptr || !outcome->isString()) return makeError(file + ": missing 'outcome'");
  const std::optional<CrashOutcome> recorded = outcomeFromKey(outcome->asString());
  if (!recorded.has_value())
    return makeError(file + ": unknown outcome '" + outcome->asString() + "'");

  std::uint64_t recorded_digest = 0;
  if (const json::Value* digest = obj.find("digest"); digest != nullptr && digest->isString())
    recorded_digest = std::strtoull(digest->asString().c_str(), nullptr, 16);

  std::uint64_t seed = 42;
  if (const json::Value* s = obj.find("seed"); s != nullptr && s->isInt())
    seed = static_cast<std::uint64_t>(s->asInt());

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

bool FailOnSet::matches(CrashOutcome outcome) const {
  switch (outcome) {
    case CrashOutcome::SilentCorruption: return silent_corruption;
    case CrashOutcome::DataLoss: return data_loss;
    case CrashOutcome::NeedsRepair: return needs_repair;
    case CrashOutcome::Recovered: return false;
  }
  return false;
}

Result<FailOnSet> parseFailOn(const std::string& spec) {
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
      if (token == "silent-corruption") {
        set.silent_corruption = true;
      } else if (token == "data-loss") {
        set.data_loss = true;
      } else if (token == "needs-repair") {
        set.needs_repair = true;
      } else if (token == "failed") {
        set.failed = true;
      } else {
        return makeError("unknown --fail-on class '" + token +
                         "' (valid: silent-corruption, data-loss, needs-repair, failed)");
      }
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (!any) return makeError("--fail-on: empty class list");
  return set;
}

}  // namespace fsdep::tools
