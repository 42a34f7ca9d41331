// TuneTool (tune2fs) tests: feature flips validated against the same
// dependency set as mkfs, with the post-hoc-specific rules.
#include <gtest/gtest.h>

#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/tune.h"

namespace fsdep::fsim {
namespace {

BlockDevice makeFs(bool quota = false, bool journal = true) {
  BlockDevice dev(8192, 1024);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 4096;
  o.blocks_per_group = 1024;
  o.inode_ratio = 8192;
  o.quota = quota;
  o.has_journal = journal || quota;
  EXPECT_TRUE(MkfsTool::format(dev, o).ok());
  return dev;
}

TEST(Tune, SetLabelAndTunables) {
  BlockDevice dev = makeFs();
  TuneOptions o;
  o.label = "renamed";
  o.max_mount_count = 25;
  o.reserved_blocks_count = 100;
  const auto report = TuneTool::tune(dev, o);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().changes.size(), 3u);

  FsImage image(dev);
  const Superblock sb = image.loadSuperblock();
  EXPECT_STREQ(sb.volume_name, "renamed");
  EXPECT_EQ(sb.max_mount_count, 25);
  EXPECT_EQ(sb.reserved_blocks_count, 100u);
}

TEST(Tune, RemovingJournalFreesItsBlocks) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  const std::uint32_t free_before = image.loadSuperblock().free_blocks_count;
  const std::uint32_t journal_blocks = image.loadSuperblock().journal_blocks;
  ASSERT_GT(journal_blocks, 0u);

  TuneOptions o;
  o.has_journal = false;
  ASSERT_TRUE(TuneTool::tune(dev, o).ok());

  const Superblock sb = image.loadSuperblock();
  EXPECT_FALSE(sb.hasCompat(kCompatHasJournal));
  EXPECT_EQ(sb.journal_blocks, 0u);
  EXPECT_EQ(sb.free_blocks_count, free_before + journal_blocks);

  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

TEST(Tune, CannotDropJournalOfQuotaFilesystem) {
  BlockDevice dev = makeFs(/*quota=*/true);
  TuneOptions o;
  o.has_journal = false;
  const auto report = TuneTool::tune(dev, o);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("quota"), std::string::npos);
}

TEST(Tune, CanDropJournalAfterDroppingQuota) {
  BlockDevice dev = makeFs(/*quota=*/true);
  TuneOptions drop_quota;
  drop_quota.quota = false;
  ASSERT_TRUE(TuneTool::tune(dev, drop_quota).ok());
  TuneOptions drop_journal;
  drop_journal.has_journal = false;
  EXPECT_TRUE(TuneTool::tune(dev, drop_journal).ok());
}

TEST(Tune, DropQuotaAndJournalTogether) {
  BlockDevice dev = makeFs(/*quota=*/true);
  TuneOptions o;
  o.quota = false;
  o.has_journal = false;
  EXPECT_TRUE(TuneTool::tune(dev, o).ok())
      << "the post-change state satisfies the dependency";
}

TEST(Tune, RefusesDirtyFilesystem) {
  BlockDevice dev = makeFs();
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    mounted.value().crash();
  }
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.state = 0;
  sb.updateChecksum();
  image.storeSuperblock(sb);

  TuneOptions o;
  o.label = "nope";
  EXPECT_FALSE(TuneTool::tune(dev, o).ok());
}

TEST(Tune, RefusesRemovingUnrecoveredJournal) {
  BlockDevice dev = makeFs();
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    mounted.value().crash();  // journal left dirty, state still valid
  }
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.state = kStateValid;  // pretend only the journal flag survived
  sb.updateChecksum();
  image.storeSuperblock(sb);

  TuneOptions o;
  o.has_journal = false;
  const auto report = TuneTool::tune(dev, o);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("recovery"), std::string::npos);
}

TEST(Tune, SwitchToSparseSuper2AndBack) {
  BlockDevice dev = makeFs();
  // sparse_super2 excludes resize_inode, which the default fs has.
  TuneOptions to_sparse2;
  to_sparse2.sparse_super2 = true;
  EXPECT_FALSE(TuneTool::tune(dev, to_sparse2).ok());

  // On a resize_inode-free fs the switch works and stays consistent.
  BlockDevice dev2(8192, 1024);
  MkfsOptions mo;
  mo.block_size = 1024;
  mo.size_blocks = 4096;
  mo.blocks_per_group = 1024;
  mo.inode_ratio = 8192;
  mo.resize_inode = false;
  ASSERT_TRUE(MkfsTool::format(dev2, mo).ok());
  ASSERT_TRUE(TuneTool::tune(dev2, to_sparse2).ok());
  FsImage image(dev2);
  EXPECT_TRUE(image.loadSuperblock().hasCompat(kCompatSparseSuper2));
  EXPECT_GT(image.loadSuperblock().backup_bgs[1], 0u);
  const auto fsck = FsckTool::check(dev2, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
  {
    auto mounted = MountTool::mount(dev2, MountOptions{});
    ASSERT_TRUE(mounted.ok()) << mounted.error().message;
    mounted.value().unmount();
  }

  TuneOptions back;
  back.sparse_super2 = false;
  ASSERT_TRUE(TuneTool::tune(dev2, back).ok());
  EXPECT_FALSE(image.loadSuperblock().hasCompat(kCompatSparseSuper2));
  EXPECT_TRUE(image.loadSuperblock().hasRoCompat(kRoCompatSparseSuper));
}

TEST(Tune, UninitBgExcludesMetadataCsum) {
  BlockDevice dev = makeFs();
  TuneOptions o;
  o.metadata_csum = true;
  o.uninit_bg = true;
  const auto report = TuneTool::tune(dev, o);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("uninit_bg"), std::string::npos);
}

TEST(Tune, ReservedBlocksCapped) {
  BlockDevice dev = makeFs();
  TuneOptions o;
  o.reserved_blocks_count = 4000;  // > half of 4096
  EXPECT_FALSE(TuneTool::tune(dev, o).ok());
}

TEST(Tune, TunedFilesystemStillMounts) {
  BlockDevice dev = makeFs();
  TuneOptions o;
  o.label = "tuned";
  o.has_journal = false;
  ASSERT_TRUE(TuneTool::tune(dev, o).ok());
  auto mounted = MountTool::mount(dev, MountOptions{});
  ASSERT_TRUE(mounted.ok()) << mounted.error().message;
  EXPECT_TRUE(mounted.value().createFile(2048).ok());
  mounted.value().unmount();
  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

}  // namespace
}  // namespace fsdep::fsim
