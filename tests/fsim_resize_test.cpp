#include <gtest/gtest.h>

#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/resize.h"

namespace fsdep::fsim {
namespace {

BlockDevice makeFs(bool sparse_super2, std::uint32_t size_blocks = 2048,
                   std::uint32_t device_blocks = 16384) {
  BlockDevice dev(device_blocks, 1024);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = size_blocks;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  o.sparse_super2 = sparse_super2;
  o.resize_inode = !sparse_super2;
  EXPECT_TRUE(MkfsTool::format(dev, o).ok());
  return dev;
}

TEST(Resize, GrowAddsGroupsAndStaysClean) {
  BlockDevice dev = makeFs(false);
  ResizeOptions ro;
  ro.new_size_blocks = 4096;
  const auto report = ResizeTool::resize(dev, ro);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report.value().grew);

  FsImage image(dev);
  const Superblock sb = image.loadSuperblock();
  EXPECT_EQ(sb.blocks_count, 4096u);
  EXPECT_EQ(sb.groupCount(), 8u);

  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

TEST(Resize, GrowPreservesFiles) {
  BlockDevice dev = makeFs(false);
  std::uint32_t ino = 0;
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    const auto created = mounted.value().createFile(4096);
    ASSERT_TRUE(created.ok());
    ino = created.value();
    mounted.value().unmount();
  }
  ResizeOptions ro;
  ro.new_size_blocks = 4096;
  ASSERT_TRUE(ResizeTool::resize(dev, ro).ok());
  auto mounted = MountTool::mount(dev, MountOptions{});
  ASSERT_TRUE(mounted.ok());
  const auto stat = mounted.value().statFile(ino);
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->size_bytes, 4096u);
}

TEST(Resize, Figure1BuggySparseSuper2GrowCorrupts) {
  BlockDevice dev = makeFs(true);
  ResizeOptions ro;
  ro.new_size_blocks = 3072;
  ro.fix_sparse_super2_accounting = false;  // historical behaviour
  const auto report = ResizeTool::resize(dev, ro);
  ASSERT_TRUE(report.ok()) << report.error().message;

  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_GT(fsck.value().corruptionCount(), 0)
      << "the paper's Figure 1 corruption must reproduce";
  bool free_count_problem = false;
  for (const FsckProblem& p : fsck.value().problems) {
    if (p.description.find("free block") != std::string::npos ||
        p.description.find("free blocks") != std::string::npos) {
      free_count_problem = true;
    }
  }
  EXPECT_TRUE(free_count_problem) << "corruption must be in the free-block accounting";
}

TEST(Resize, Figure1FixedSparseSuper2GrowIsClean) {
  BlockDevice dev = makeFs(true);
  ResizeOptions ro;
  ro.new_size_blocks = 3072;
  ro.fix_sparse_super2_accounting = true;
  ASSERT_TRUE(ResizeTool::resize(dev, ro).ok());
  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

TEST(Resize, Figure1SparseSuper2ShrinkIsCleanEvenWithBuggyFlag) {
  // Figure 1's other dependency: the bug needs a target above the current
  // size, so shrinking a used sparse_super2 filesystem stays clean.
  BlockDevice dev = makeFs(true);
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    ASSERT_TRUE(mounted.value().createFile(8192, 2).ok());
    mounted.value().unmount();
  }
  ResizeOptions ro;
  ro.new_size_blocks = 1024;
  ro.fix_sparse_super2_accounting = false;
  const auto report = ResizeTool::resize(dev, ro);
  ASSERT_TRUE(report.ok()) << report.error().message;
  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean())
      << "the bug requires growing the filesystem: " << fsck.value().summary();
}

TEST(Resize, NonSparseSuper2GrowIsCleanEvenWithBuggyFlag) {
  BlockDevice dev = makeFs(false);
  ResizeOptions ro;
  ro.new_size_blocks = 3072;
  ro.fix_sparse_super2_accounting = false;
  ASSERT_TRUE(ResizeTool::resize(dev, ro).ok());
  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean())
      << "the bug requires the sparse_super2 dependency: " << fsck.value().summary();
}

TEST(Resize, RepairFixesTheFigure1Corruption) {
  BlockDevice dev = makeFs(true);
  ResizeOptions ro;
  ro.new_size_blocks = 3072;
  ASSERT_TRUE(ResizeTool::resize(dev, ro).ok());
  const auto repair = FsckTool::check(dev, FsckOptions{.force = true, .repair = true});
  ASSERT_TRUE(repair.ok());
  EXPECT_GT(repair.value().problems.size(), 0u);
  const auto recheck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(recheck.ok());
  EXPECT_TRUE(recheck.value().isClean()) << recheck.value().summary();
}

TEST(Resize, ShrinkReleasesGroups) {
  BlockDevice dev = makeFs(false, 4096);
  ResizeOptions ro;
  ro.new_size_blocks = 2048;
  const auto report = ResizeTool::resize(dev, ro);
  ASSERT_TRUE(report.ok()) << report.error().message;
  FsImage image(dev);
  EXPECT_EQ(image.loadSuperblock().blocks_count, 2048u);
  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

TEST(Resize, OnlineRequiresResizeInode) {
  BlockDevice dev = makeFs(true);  // sparse_super2 => no resize_inode
  ResizeOptions ro;
  ro.new_size_blocks = 3072;
  ro.online = true;
  const auto report = ResizeTool::resize(dev, ro);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.error().message.find("resize_inode"), std::string::npos);
}

TEST(Resize, OnlineWorksWithResizeInode) {
  BlockDevice dev = makeFs(false);
  ResizeOptions ro;
  ro.new_size_blocks = 3072;
  ro.online = true;
  EXPECT_TRUE(ResizeTool::resize(dev, ro).ok());
}

TEST(Resize, RefusesDirtyFilesystemWithoutForce) {
  BlockDevice dev = makeFs(false);
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.state = 0;  // dirty
  sb.updateChecksum();
  image.storeSuperblock(sb);

  ResizeOptions ro;
  ro.new_size_blocks = 3072;
  EXPECT_FALSE(ResizeTool::resize(dev, ro).ok());
  ro.force = true;
  EXPECT_TRUE(ResizeTool::resize(dev, ro).ok());
}

TEST(Resize, RefusesShrinkBelowAllocation) {
  BlockDevice dev = makeFs(false);
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    ASSERT_TRUE(mounted.value().createFile(64 * 1024).ok());
    mounted.value().unmount();
  }
  FsImage image(dev);
  const Superblock sb = image.loadSuperblock();
  const std::uint32_t in_use = sb.blocks_count - sb.free_blocks_count;
  ResizeOptions ro;
  ro.new_size_blocks = in_use / 2;
  EXPECT_FALSE(ResizeTool::resize(dev, ro).ok());
}

TEST(Resize, RefusedGrowLeavesTheDeviceAlone) {
  // 1 KiB blocks hold 32 descriptors, so with 512 blocks per group the
  // filesystem cannot pass 16,384 blocks: a grow to 20,000 is refused,
  // and the refusal must not have grown the device first. The largest
  // target must be refused too, not wrap to zero groups.
  for (const std::uint32_t target : {20000u, 0xFFFFFFFFu}) {
    SCOPED_TRACE(target);
    BlockDevice dev = makeFs(false, 2048, 8192);
    ResizeOptions ro;
    ro.new_size_blocks = target;
    const auto report = ResizeTool::resize(dev, ro);
    ASSERT_FALSE(report.ok());
    EXPECT_NE(report.error().message.find("descriptor table"), std::string::npos)
        << report.error().message;
    EXPECT_EQ(dev.blockCount(), 8192u);
    const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
    ASSERT_TRUE(fsck.ok());
    EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
  }
}

TEST(Resize, NoOpResize) {
  BlockDevice dev = makeFs(false);
  ResizeOptions ro;
  ro.new_size_blocks = 2048;
  const auto report = ResizeTool::resize(dev, ro);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report.value().notes.empty());
  EXPECT_EQ(report.value().notes[0], "nothing to do");
}

TEST(Resize, ZeroSizeIsRejected) {
  BlockDevice dev = makeFs(false);
  ResizeOptions ro;
  ro.new_size_blocks = 0;
  EXPECT_FALSE(ResizeTool::resize(dev, ro).ok());
}

// Grow-shrink round trip keeps the filesystem consistent at every step.
class ResizeRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ResizeRoundTrip, GrowThenShrinkBackStaysClean) {
  const std::uint32_t target = GetParam();
  BlockDevice dev = makeFs(false);
  ResizeOptions grow;
  grow.new_size_blocks = target;
  ASSERT_TRUE(ResizeTool::resize(dev, grow).ok());
  ASSERT_TRUE(FsckTool::check(dev, FsckOptions{.force = true}).value().isClean());

  ResizeOptions shrink;
  shrink.new_size_blocks = 2048;
  ASSERT_TRUE(ResizeTool::resize(dev, shrink).ok());
  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

INSTANTIATE_TEST_SUITE_P(Targets, ResizeRoundTrip,
                         ::testing::Values(2560u, 3072u, 4096u, 6144u, 8192u, 3000u, 5120u));

}  // namespace
}  // namespace fsdep::fsim
