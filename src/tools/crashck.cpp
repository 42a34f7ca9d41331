#include "tools/crashck.h"

#include <algorithm>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include "fsim/fsck.h"
#include "fsim/image.h"
#include "fsim/mount.h"
#include "tools/campaign.h"

namespace fsdep::tools {

using namespace fsim;

const char* crashOutcomeName(CrashOutcome outcome) {
  return std::ranges::find(kCrashOutcomes, outcome, &CrashOutcomeRow::outcome)->report;
}

const char* crashOutcomeKey(CrashOutcome outcome) {
  return std::ranges::find(kCrashOutcomes, outcome, &CrashOutcomeRow::outcome)->key;
}

std::optional<CrashOutcome> crashOutcomeFromKey(std::string_view key) {
  for (const CrashOutcomeRow& row : kCrashOutcomes) {
    if (key == row.key) return row.outcome;
  }
  return std::nullopt;
}

std::string outcomeHistogram(const std::function<int(CrashOutcome)>& count) {
  std::string text;
  for (const CrashOutcomeRow& row : kCrashOutcomes) {
    if (!text.empty()) text += ' ';
    text += std::string(row.key) + "=" + std::to_string(count(row.outcome));
  }
  return text;
}

int CrashOpReport::countOf(CrashOutcome outcome) const {
  int n = 0;
  for (const CrashPoint& p : points) n += p.outcome == outcome ? 1 : 0;
  return n;
}

std::string CrashOpReport::histogram() const {
  return outcomeHistogram([this](CrashOutcome outcome) { return countOf(outcome); });
}

int CrashCkReport::totalOf(CrashOutcome outcome) const {
  int n = 0;
  for (const CrashOpReport& op : ops) n += op.countOf(outcome);
  return n;
}

std::string CrashCkReport::summary() const {
  std::size_t points = 0;
  for (const CrashOpReport& op : ops) points += op.points.size();
  return std::to_string(ops.size()) + " op(s), " + std::to_string(points) +
         " crash point(s): " +
         outcomeHistogram([this](CrashOutcome outcome) { return totalOf(outcome); });
}

namespace {

/// The one configuration CrashCk pins: the campaign's baseline row,
/// with sparse_super2 on (and resize_inode off) for the resize ops, so
/// the grow takes the Figure 1 path.
GeneratedConfig crashCkConfig(const std::string& op) {
  GeneratedConfig config = baselineConfig();
  config.tune.label = "crashck";
  if (op == "resize" || op == "resize-buggy") {
    config.mkfs.sparse_super2 = true;
    config.mkfs.resize_inode = false;
  }
  return config;
}

}  // namespace

CrashOutcome classifyPostCrashImage(BlockDevice& device, const CrashCanary& canary,
                                    std::string& detail) {
  FsImage image(device);
  Superblock sb;
  try {
    sb = image.loadSuperblock();
  } catch (const IoError& e) {
    detail = std::string("superblock unreadable: ") + e.what();
    return CrashOutcome::NeedsRepair;
  }
  if (sb.magic != kExt4Magic) {
    detail = "no valid filesystem on the device (interrupted mkfs)";
    return CrashOutcome::NeedsRepair;
  }

  // The image's own claim of health — recorded before any recovery runs,
  // because recovery is allowed to fix things, not to excuse lies.
  const bool claims_clean = sb.checksum == sb.computeChecksum() &&
                            (sb.state & kStateValid) != 0 && sb.journal_dirty == 0;

  // Reboot: mount (replaying a dirty journal) and cleanly unmount.
  {
    Result<MountedFs> mounted = MountTool::mount(device, MountOptions{});
    if (mounted.ok()) mounted.value().unmount();
  }

  const Result<FsckReport> fsck = FsckTool::check(device, FsckOptions{.force = true});
  if (!fsck.ok()) {
    detail = fsck.error().message;
    return CrashOutcome::NeedsRepair;
  }
  if (!fsck.value().isClean()) {
    detail = fsck.value().summary();
    return claims_clean ? CrashOutcome::SilentCorruption : CrashOutcome::NeedsRepair;
  }

  if (canary.ino != 0) {
    try {
      const Superblock now = image.loadSuperblock();
      const Inode inode = image.loadInode(now, canary.ino);
      if (inode.links == 0 || inode.size_bytes != canary.size_bytes) {
        detail = "metadata consistent but the canary file is gone";
        return CrashOutcome::DataLoss;
      }
    } catch (const IoError&) {
      detail = "canary inode unreadable";
      return CrashOutcome::DataLoss;
    }
  }
  detail = claims_clean ? "clean" : "recovered (journal replay / remount)";
  return CrashOutcome::Recovered;
}

Result<CrashOpReport> runCrashOp(const std::string& op, std::uint64_t seed) {
  obs::Span span("crashck", "crash-op");
  span.arg("op", op);
  const GeneratedConfig config = crashCkConfig(op);
  const Result<std::uint64_t> total = opWriteCount(config, op);
  if (!total.ok()) return makeError("crashck: " + total.error().message);

  CrashOpReport report;
  report.op = op;
  report.total_writes = total.value();
  for (std::uint64_t index = 0; index <= report.total_writes; ++index) {
    const bool control = index == report.total_writes;
    FaultSchedule schedule;
    if (!control) schedule.push_back(FaultEvent{FaultEventKind::CrashAtWrite, index, 0, 0});
    Result<CellOutcome> cell = runCampaignCell(config, op, schedule, seed);
    if (!cell.ok()) return makeError(cell.error().message);

    CrashPoint point;
    point.write_index = index;
    point.control = control;
    point.outcome = cell.value().outcome;
    point.detail = std::move(cell.value().detail);
    obs::Registry::global()
        .counter("crashck.outcome", {{"outcome", crashOutcomeName(point.outcome)}})
        .add();
    FSDEP_LOG_DEBUG("crashck", "%s write %llu%s -> %s", op.c_str(),
                    static_cast<unsigned long long>(point.write_index),
                    point.control ? " (control)" : "", crashOutcomeName(point.outcome));
    report.points.push_back(std::move(point));
  }
  FSDEP_LOG_INFO("crashck", "%s: %llu writes, %s", op.c_str(),
                 static_cast<unsigned long long>(report.total_writes),
                 report.histogram().c_str());
  return report;
}

Result<CrashCkReport> runCrashCk(const CrashCkOptions& options) {
  CrashCkReport report;
  report.seed = options.seed;
  const std::vector<std::string> ops =
      options.ops.empty() ? campaignOpNames() : options.ops;
  for (const std::string& op : ops) {
    Result<CrashOpReport> one = runCrashOp(op, options.seed);
    if (!one.ok()) return makeError(one.error().message);
    report.ops.push_back(std::move(one.value()));
  }
  return report;
}

}  // namespace fsdep::tools
