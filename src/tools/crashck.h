// CrashCk: deterministic crash-point and fault-schedule enumeration
// across the fsim toolchain. For every write a tool issues, the harness
// re-executes the tool on a fresh image with a FaultPlan that freezes
// the device at exactly that write (persisting a seeded torn prefix),
// then recovers — remount (journal replay) plus fsck — and classifies
// what a user would experience. The paper's §4.2 usage 2 asks whether
// misconfigurations are handled gracefully; CrashCk asks the companion
// question for the same toolchain: are *interruptions* handled
// gracefully, or can a crash mid-operation leave an image that lies
// about its own health? The Figure 1 resize bug is the motivating case:
// run buggy, its completed resize is exactly such a lie.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fsim/block_device.h"
#include "support/result.h"

namespace fsdep::tools {

/// What a crash at one write index costs the user, best to worst.
enum class CrashOutcome : std::uint8_t {
  Recovered,         ///< remount + fsck clean, canary file intact
  NeedsRepair,       ///< image flagged unclean / fsck reported problems
  SilentCorruption,  ///< image claimed clean but fsck found problems
  DataLoss,          ///< metadata consistent but the canary file is gone
};

/// One row per outcome, best to worst: its key (reproducer files, the
/// campaign report, --fail-on) and its report name, which shouts the
/// two outcomes that lie to the user.
struct CrashOutcomeRow {
  CrashOutcome outcome;
  const char* key;
  const char* report;
};

inline constexpr CrashOutcomeRow kCrashOutcomes[] = {
    {CrashOutcome::Recovered, "recovered", "recovered"},
    {CrashOutcome::NeedsRepair, "needs-repair", "needs-repair"},
    {CrashOutcome::SilentCorruption, "silent-corruption", "SILENT-CORRUPTION"},
    {CrashOutcome::DataLoss, "data-loss", "DATA-LOSS"},
};

const char* crashOutcomeName(CrashOutcome outcome);  ///< the report name
const char* crashOutcomeKey(CrashOutcome outcome);
std::optional<CrashOutcome> crashOutcomeFromKey(std::string_view key);

/// "recovered=N needs-repair=N silent-corruption=N data-loss=N", each N
/// read from `count`.
std::string outcomeHistogram(const std::function<int(CrashOutcome)>& count);

/// A file planted before the operation under test; its survival
/// distinguishes Recovered from DataLoss.
struct CrashCanary {
  std::uint32_t ino = 0;         ///< 0 = no canary (mkfs has nothing to lose)
  std::uint32_t size_bytes = 0;
};

struct CrashPoint {
  std::uint64_t write_index = 0;
  bool control = false;  ///< the fault-free run (write_index == total_writes)
  CrashOutcome outcome = CrashOutcome::Recovered;
  std::string detail;
};

struct CrashOpReport {
  std::string op;
  std::uint64_t total_writes = 0;  ///< persisted writes of a fault-free run
  std::vector<CrashPoint> points;  ///< total_writes crash points + 1 control

  [[nodiscard]] int countOf(CrashOutcome outcome) const;
  /// outcomeHistogram() of the points
  [[nodiscard]] std::string histogram() const;
};

struct CrashCkReport {
  std::uint64_t seed = 0;
  std::vector<CrashOpReport> ops;

  [[nodiscard]] int totalOf(CrashOutcome outcome) const;
  [[nodiscard]] std::string summary() const;
};

struct CrashCkOptions {
  std::uint64_t seed = 42;
  /// Subset of campaignOpNames() to run; empty = all. "resize" runs
  /// with the sparse_super2 accounting fix; "resize-buggy" replays the
  /// shipped (Figure 1) behaviour.
  std::vector<std::string> ops;
};

/// Recovery oracle, exported so tests can classify hand-built images.
/// The device must have its faults cleared (the machine rebooted).
/// Sequence: read the superblock's own claim of health, remount (journal
/// replay) + unmount, fsck -f, then check the canary.
CrashOutcome classifyPostCrashImage(fsim::BlockDevice& device, const CrashCanary& canary,
                                    std::string& detail);

/// Enumerates every crash point of one operation: one campaign cell
/// (runCampaignCell) per write index of the op's fault-free run, plus
/// the control, all on the campaign's baseline configuration.
/// Deterministic: the same (op, seed) yields an identical report.
Result<CrashOpReport> runCrashOp(const std::string& op, std::uint64_t seed);

/// The full campaign over the requested (default: all) operations.
Result<CrashCkReport> runCrashCk(const CrashCkOptions& options = {});

}  // namespace fsdep::tools
