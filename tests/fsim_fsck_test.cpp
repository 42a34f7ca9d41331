#include <gtest/gtest.h>

#include <cstdint>

#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"

namespace fsdep::fsim {
namespace {

BlockDevice makeFs() {
  BlockDevice dev(8192, 1024);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 4096;
  o.blocks_per_group = 1024;
  o.inode_ratio = 8192;
  EXPECT_TRUE(MkfsTool::format(dev, o).ok());
  return dev;
}

TEST(Fsck, CleanFilesystemSkipsWithoutForce) {
  BlockDevice dev = makeFs();
  const auto report = FsckTool::check(dev, FsckOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean_skip);
  EXPECT_NE(report.value().summary().find("skipped"), std::string::npos);
}

TEST(Fsck, ForceChecksEverything) {
  BlockDevice dev = makeFs();
  const auto report = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().clean_skip);
  EXPECT_TRUE(report.value().isClean());
}

TEST(Fsck, DetectsBadMagic) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.magic = 0;
  image.storeSuperblock(sb);
  const auto report = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().corruptionCount(), 1);
}

TEST(Fsck, DetectsFreeCountMismatch) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  GroupDesc gd = image.loadGroupDesc(sb, 1);
  gd.free_blocks_count = static_cast<std::uint16_t>(gd.free_blocks_count - 3);
  image.storeGroupDesc(sb, 1, gd);
  const auto report = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().corruptionCount(), 0);
}

TEST(Fsck, DetectsSuperblockChecksumMismatch) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.error_count = 99;  // change without refreshing the checksum
  image.storeSuperblock(sb);
  const auto report = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(report.ok());
  bool checksum_problem = false;
  for (const FsckProblem& p : report.value().problems) {
    checksum_problem |= p.description.find("checksum") != std::string::npos;
  }
  EXPECT_TRUE(checksum_problem);
}

TEST(Fsck, DetectsExtentBeyondEnd) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  Inode bad;
  bad.links = 1;
  bad.size_bytes = 1024;
  bad.extents = {{sb.blocks_count + 100, 4}};
  image.storeInode(sb, sb.first_inode, bad);
  const auto report = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(report.ok());
  bool found = false;
  for (const FsckProblem& p : report.value().problems) {
    found |= p.description.find("beyond the filesystem") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Fsck, DetectsInodeUsingFreeBlock) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  // Point an inode at a block that is free in the bitmap.
  Inode bad;
  bad.links = 1;
  bad.size_bytes = 1024;
  bad.extents = {{sb.blocks_count - 4, 1}};
  image.storeInode(sb, sb.first_inode, bad);
  const auto report = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(report.ok());
  bool found = false;
  for (const FsckProblem& p : report.value().problems) {
    found |= p.description.find("free in the bitmap") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Fsck, DetectsStaleBackups) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.blocks_count -= 8;  // primary diverges from the backups
  sb.updateChecksum();
  image.storeSuperblock(sb);
  const auto report = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(report.ok());
  bool stale = false;
  for (const FsckProblem& p : report.value().problems) {
    stale |= p.description.find("stale") != std::string::npos;
  }
  EXPECT_TRUE(stale);
}

TEST(Fsck, BackupSuperblockRecovery) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  const std::vector<std::uint32_t> backups = backupGroups(sb);
  ASSERT_FALSE(backups.empty());

  // Destroy the primary superblock.
  Superblock ruined = sb;
  ruined.magic = 0;
  image.storeSuperblock(ruined);

  const auto primary = FsckTool::check(dev, FsckOptions{.force = true});
  EXPECT_GT(primary.value().corruptionCount(), 0);

  const auto recovered =
      FsckTool::check(dev, FsckOptions{.force = true, .backup_group = backups[0]});
  ASSERT_TRUE(recovered.ok());
  // Reading via the backup must at least see a valid magic again.
  bool bad_magic = false;
  for (const FsckProblem& p : recovered.value().problems) {
    bad_magic |= p.description.find("bad magic") != std::string::npos;
  }
  EXPECT_FALSE(bad_magic);
}

TEST(Fsck, RepairRestoresConsistency) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.free_blocks_count += 11;
  GroupDesc gd = image.loadGroupDesc(sb, 0);
  gd.free_inodes_count = static_cast<std::uint16_t>(gd.free_inodes_count + 2);
  image.storeGroupDesc(sb, 0, gd);
  sb.updateChecksum();
  image.storeSuperblock(sb);

  const auto repair = FsckTool::check(dev, FsckOptions{.force = true, .repair = true});
  ASSERT_TRUE(repair.ok());
  EXPECT_FALSE(repair.value().problems.empty());
  for (const FsckProblem& p : repair.value().problems) EXPECT_TRUE(p.fixed);

  const auto recheck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(recheck.ok());
  EXPECT_TRUE(recheck.value().isClean()) << recheck.value().summary();
}

TEST(Fsck, MediaErrorReportedAsCorruption) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  const Superblock sb = image.loadSuperblock();
  const GroupDesc gd = image.loadGroupDesc(sb, 1);
  FaultPlan plan;  // a bad block: it fails every attempt
  plan.transients.push_back(
      TransientFault{.block = gd.block_bitmap, .failures = UINT32_MAX, .on_write = false});
  dev.setFaultPlan(plan);
  const auto report = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(report.ok());
  bool unreadable = false;
  for (const FsckProblem& p : report.value().problems) {
    unreadable |= p.description.find("unreadable") != std::string::npos;
  }
  EXPECT_TRUE(unreadable);
}

TEST(Fsck, DirtyStateTriggersFullCheckWithoutForce) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.state = 0;
  sb.updateChecksum();
  image.storeSuperblock(sb);
  const auto report = FsckTool::check(dev, FsckOptions{});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().clean_skip);
}

}  // namespace
}  // namespace fsdep::fsim
