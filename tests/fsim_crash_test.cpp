// CrashCk end-to-end: enumerating every crash point of the fsim tools
// must never find silent corruption in the fixed toolchain, must find
// it in the shipped (Figure 1) resize, and must be bit-for-bit
// deterministic in the (schedule, seed) pair.
#include <gtest/gtest.h>

#include "tools/crashck.h"

#include "fsim/digest.h"
#include "fsim/image.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "tools/campaign.h"

namespace fsdep::tools {
namespace {

using namespace fsim;

CrashOpReport enumerate(const std::string& op, std::uint64_t seed = 42) {
  Result<CrashOpReport> report = runCrashOp(op, seed);
  EXPECT_TRUE(report.ok()) << (report.ok() ? "" : report.error().message);
  return std::move(report.value());
}

TEST(CrashCk, MkfsHasNoSilentCorruptionPoints) {
  const CrashOpReport report = enumerate("mkfs");
  EXPECT_GT(report.total_writes, 0u);
  EXPECT_EQ(report.points.size(), report.total_writes + 1);
  EXPECT_EQ(report.countOf(CrashOutcome::SilentCorruption), 0) << report.histogram();
  EXPECT_EQ(report.countOf(CrashOutcome::DataLoss), 0) << report.histogram();
  // The control point is the fault-free run: a healthy filesystem.
  EXPECT_TRUE(report.points.back().control);
  EXPECT_EQ(report.points.back().outcome, CrashOutcome::Recovered);
}

TEST(CrashCk, FixedResizeHasNoSilentCorruptionPoints) {
  const CrashOpReport report = enumerate("resize");
  EXPECT_GT(report.total_writes, 0u);
  EXPECT_EQ(report.countOf(CrashOutcome::SilentCorruption), 0) << report.histogram();
  EXPECT_EQ(report.countOf(CrashOutcome::DataLoss), 0) << report.histogram();
  EXPECT_EQ(report.points.back().outcome, CrashOutcome::Recovered);
}

TEST(CrashCk, BuggyResizeShowsSilentCorruption) {
  const CrashOpReport report = enumerate("resize-buggy");
  EXPECT_GE(report.countOf(CrashOutcome::SilentCorruption), 1) << report.histogram();
  // The completed run itself is the lie: clean superblock, wrong counts.
  EXPECT_EQ(report.points.back().outcome, CrashOutcome::SilentCorruption);
}

TEST(CrashCk, MountJournalCycleAlwaysRecovers) {
  const CrashOpReport report = enumerate("mount");
  // Every crash point of a journalled mount/write/umount cycle replays
  // to a consistent image with the canary intact.
  EXPECT_EQ(report.countOf(CrashOutcome::Recovered),
            static_cast<int>(report.points.size()))
      << report.histogram();
}

TEST(CrashCk, RemainingOpsNeverCorruptSilently) {
  for (const char* op : {"defrag", "tune"}) {
    const CrashOpReport report = enumerate(op);
    EXPECT_EQ(report.countOf(CrashOutcome::SilentCorruption), 0)
        << op << ": " << report.histogram();
    EXPECT_EQ(report.points.back().outcome, CrashOutcome::Recovered) << op;
  }
}

TEST(CrashCk, SameSeedSameReport) {
  for (const std::uint64_t seed : {99, 1234}) {
    for (const std::string& op : campaignOpNames()) {
      SCOPED_TRACE(op + " at seed " + std::to_string(seed));
      const CrashOpReport a = enumerate(op, seed);
      const CrashOpReport b = enumerate(op, seed);
      ASSERT_EQ(a.points.size(), b.points.size());
      EXPECT_EQ(a.total_writes, b.total_writes);
      for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].outcome, b.points[i].outcome) << i;
        EXPECT_EQ(a.points[i].detail, b.points[i].detail) << i;
      }
    }
  }
}

TEST(CrashCk, FullCampaignFindsExactlyTheFigure1Lie) {
  const Result<CrashCkReport> result = runCrashCk(CrashCkOptions{.seed = 42, .ops = {}});
  ASSERT_TRUE(result.ok());
  const CrashCkReport& report = result.value();
  EXPECT_EQ(report.ops.size(), campaignOpNames().size());
  // The only silent-corruption point in the whole campaign comes from
  // the buggy resize, and no crash point loses the canary.
  for (const CrashOpReport& op : report.ops) {
    if (op.op == "resize-buggy") {
      EXPECT_GE(op.countOf(CrashOutcome::SilentCorruption), 1);
    } else {
      EXPECT_EQ(op.countOf(CrashOutcome::SilentCorruption), 0)
          << op.op << ": " << op.histogram();
    }
    EXPECT_EQ(op.countOf(CrashOutcome::DataLoss), 0) << op.op << ": " << op.histogram();
  }
}

TEST(CrashCk, UnknownOpIsAnError) {
  EXPECT_FALSE(runCrashOp("chkdsk", 42).ok());
  CrashCkOptions options;
  options.ops = {"chkdsk"};
  EXPECT_FALSE(runCrashCk(options).ok());
}

TEST(CrashCk, ClassifierCallsHealthyImageRecovered) {
  BlockDevice device(8192, 1024);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  ASSERT_TRUE(MkfsTool::format(device, o).ok());
  std::string detail;
  EXPECT_EQ(classifyPostCrashImage(device, CrashCanary{}, detail),
            CrashOutcome::Recovered)
      << detail;
}

TEST(CrashCk, ClassifierDetectsLostCanary) {
  BlockDevice device(8192, 1024);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  ASSERT_TRUE(MkfsTool::format(device, o).ok());
  CrashCanary canary;
  {
    auto mounted = MountTool::mount(device, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    auto ino = mounted.value().createFile(4096, 0);
    ASSERT_TRUE(ino.ok());
    canary.ino = ino.value();
    canary.size_bytes = 4096;
    ASSERT_TRUE(mounted.value().removeFile(ino.value()).ok());
    mounted.value().unmount();
  }
  std::string detail;
  EXPECT_EQ(classifyPostCrashImage(device, canary, detail), CrashOutcome::DataLoss)
      << detail;
}

TEST(CrashCk, ClassifierHandlesCanarylessInterruptedMkfs) {
  // Crash at the very first persisted write of mkfs: nothing valid ever
  // reaches the device. With no canary (mkfs has nothing to lose) the
  // verdict must be NeedsRepair — never DataLoss.
  BlockDevice device(8192, 1024);
  FaultPlan plan;
  plan.seed = 42;
  plan.crash_at_write = 0;
  plan.torn_mode = TornMode::Seeded;
  device.setFaultPlan(plan);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  try {
    (void)MkfsTool::format(device, o);
  } catch (const IoError&) {
  }
  device.clearFaults();
  std::string detail;
  EXPECT_EQ(classifyPostCrashImage(device, CrashCanary{}, detail),
            CrashOutcome::NeedsRepair)
      << detail;
}

TEST(CrashCk, ClassifierCallsUnfixableImageNeedsRepair) {
  // Destroy the superblock magic: fsck cannot even identify a
  // filesystem to fix. The classifier must degrade to NeedsRepair
  // instead of crashing or calling the wreckage Recovered.
  BlockDevice device(8192, 1024);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  ASSERT_TRUE(MkfsTool::format(device, o).ok());
  FsImage image(device);
  Superblock sb = image.loadSuperblock();
  sb.magic = 0;
  image.storeSuperblock(sb);
  std::string detail;
  EXPECT_EQ(classifyPostCrashImage(device, CrashCanary{}, detail),
            CrashOutcome::NeedsRepair)
      << detail;
}

TEST(CrashCk, ClassifierFlagsHandBuiltLieAsSilentCorruption) {
  // A superblock that passes its own checksum and claims to be clean,
  // but whose free-block accounting is wrong: the Figure 1 shape,
  // built by hand instead of by the buggy resize.
  BlockDevice device(8192, 1024);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  ASSERT_TRUE(MkfsTool::format(device, o).ok());
  FsImage image(device);
  Superblock sb = image.loadSuperblock();
  sb.free_blocks_count += 64;  // the lie
  sb.checksum = sb.computeChecksum();  // ...sworn under a fresh checksum
  image.storeSuperblock(sb);
  std::string detail;
  EXPECT_EQ(classifyPostCrashImage(device, CrashCanary{}, detail),
            CrashOutcome::SilentCorruption)
      << detail;
}

TEST(CrashCk, DoubleFaultScheduleClassifiesDeterministically) {
  // Crash plus a transient write fault in the same run: the campaign
  // cell must classify it (any class) and do so reproducibly.
  tools::FaultEvent crash;
  crash.kind = tools::FaultEventKind::CrashAtWrite;
  crash.write_index = 3;
  tools::FaultEvent transient;
  transient.kind = tools::FaultEventKind::TransientWrite;
  transient.block = 2;
  transient.failures = 4;  // beyond the retry policy: the fault surfaces
  const tools::FaultSchedule schedule = {crash, transient};

  const auto a = tools::runCampaignCell(tools::baselineConfig(), "mount", schedule, 42);
  const auto b = tools::runCampaignCell(tools::baselineConfig(), "mount", schedule, 42);
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().outcome, b.value().outcome);
  EXPECT_EQ(a.value().digest, b.value().digest);
  EXPECT_NE(a.value().digest, 0u);
}

TEST(StateDigest, IdenticalImagesHashIdentically) {
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  BlockDevice a(8192, 1024);
  BlockDevice b(8192, 1024);
  ASSERT_TRUE(MkfsTool::format(a, o).ok());
  ASSERT_TRUE(MkfsTool::format(b, o).ok());
  EXPECT_EQ(imageStateDigest(a), imageStateDigest(b));
  EXPECT_EQ(imageStateDigest(a), imageStateDigest(a));  // pure
}

TEST(StateDigest, SensitiveToLogicalMetadata) {
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  BlockDevice device(8192, 1024);
  ASSERT_TRUE(MkfsTool::format(device, o).ok());
  const std::uint64_t before = imageStateDigest(device);
  {
    auto mounted = MountTool::mount(device, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    ASSERT_TRUE(mounted.value().createFile(4096, 0).ok());
    mounted.value().unmount();
  }
  EXPECT_NE(imageStateDigest(device), before);
}

TEST(StateDigest, InsensitiveToMountCountHistory) {
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  BlockDevice device(8192, 1024);
  ASSERT_TRUE(MkfsTool::format(device, o).ok());
  const std::uint64_t before = imageStateDigest(device);
  FsImage image(device);
  Superblock sb = image.loadSuperblock();
  sb.mount_count += 7;  // history, not state
  sb.checksum = sb.computeChecksum();
  image.storeSuperblock(sb);
  EXPECT_EQ(imageStateDigest(device), before);
}

TEST(StateDigest, RawFallbackDistinguishesWreckage) {
  // No valid filesystem: the digest falls back to hashing the raw
  // metadata region, so distinct wreckage still lands in distinct
  // equivalence classes.
  BlockDevice blank(8192, 1024);
  BlockDevice scribbled(8192, 1024);
  const std::uint8_t junk[4] = {0xde, 0xad, 0xbe, 0xef};
  scribbled.writeBytes(2048, junk);
  EXPECT_NE(imageStateDigest(blank), imageStateDigest(scribbled));
}

}  // namespace
}  // namespace fsdep::tools
