#include <gtest/gtest.h>

#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"

namespace fsdep::fsim {
namespace {

BlockDevice makeFs(MkfsOptions* opts_out = nullptr, std::uint32_t block_size = 1024) {
  BlockDevice dev(8192, block_size);
  MkfsOptions o;
  o.block_size = block_size;
  o.size_blocks = 4096;
  o.blocks_per_group = 1024;
  o.inode_ratio = std::max<std::uint32_t>(8192, block_size);
  const auto sb = MkfsTool::format(dev, o);
  EXPECT_TRUE(sb.ok()) << (sb.ok() ? "" : sb.error().message);
  if (opts_out != nullptr) *opts_out = o;
  return dev;
}

TEST(Mount, DefaultsWork) {
  BlockDevice dev = makeFs();
  auto mounted = MountTool::mount(dev, MountOptions{});
  ASSERT_TRUE(mounted.ok()) << mounted.error().message;
  EXPECT_EQ(mounted.value().superblock().magic, kExt4Magic);
}

TEST(Mount, MountCountIncrements) {
  BlockDevice dev = makeFs();
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    mounted.value().unmount();
  }
  FsImage image(dev);
  EXPECT_EQ(image.loadSuperblock().mount_count, 1u);
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    mounted.value().unmount();
  }
  EXPECT_EQ(image.loadSuperblock().mount_count, 2u);
}

TEST(Mount, ReadOnlyDoesNotTouchTheImage) {
  BlockDevice dev = makeFs();
  MountOptions o;
  o.read_only = true;
  const std::uint64_t writes_before = dev.writeCount();
  auto mounted = MountTool::mount(dev, o);
  ASSERT_TRUE(mounted.ok());
  mounted.value().unmount();
  EXPECT_EQ(dev.writeCount(), writes_before);
}

TEST(Mount, RejectsBadMagic) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.magic = 0x1234;
  image.storeSuperblock(sb);
  const auto mounted = MountTool::mount(dev, MountOptions{});
  ASSERT_FALSE(mounted.ok());
  EXPECT_NE(mounted.error().message.find("magic"), std::string::npos);
}

TEST(Mount, RejectsFieldDomainViolations) {
  struct Case {
    const char* name;
    void (*corrupt)(Superblock&);
  };
  const Case cases[] = {
      {"log_block_size", [](Superblock& sb) { sb.log_block_size = 9; }},
      {"inode_size", [](Superblock& sb) { sb.inode_size = 64; }},
      {"rev_level", [](Superblock& sb) { sb.rev_level = 3; }},
      {"first_inode", [](Superblock& sb) { sb.first_inode = 5; }},
      {"desc_size", [](Superblock& sb) { sb.desc_size = 128; }},
      {"first_data_block", [](Superblock& sb) { sb.first_data_block = 7; }},
      {"inodes_per_group", [](Superblock& sb) { sb.inodes_per_group = 4; }},
  };
  for (const Case& c : cases) {
    BlockDevice dev = makeFs();
    FsImage image(dev);
    Superblock sb = image.loadSuperblock();
    c.corrupt(sb);
    sb.updateChecksum();
    image.storeSuperblock(sb);
    EXPECT_FALSE(MountTool::mount(dev, MountOptions{}).ok()) << c.name;
  }
}

TEST(Mount, RejectsGeometryWithoutGroupsOrBeyondTheDescriptorTable) {
  // 0xFFFFFFFF blocks counted 0 groups in 32 bits; 0 blocks sit below
  // first_data_block. Zero blocks or inodes per group count 0 groups
  // too, and fsck's extent cross-check (over the file written here) and
  // its inode loads divide by them.
  struct Case {
    const char* name;
    void (*corrupt)(Superblock&);
  };
  const Case cases[] = {
      {"blocks_count 0xFFFFFFFF", [](Superblock& sb) { sb.blocks_count = 0xFFFFFFFFu; }},
      {"blocks_count 0", [](Superblock& sb) { sb.blocks_count = 0; }},
      {"blocks_per_group 0", [](Superblock& sb) { sb.blocks_per_group = 0; }},
      {"inodes_per_group 0", [](Superblock& sb) { sb.inodes_per_group = 0; }},
  };
  for (const Case& c : cases) {
    BlockDevice dev = makeFs();
    {
      auto mounted = MountTool::mount(dev, MountOptions{});
      ASSERT_TRUE(mounted.ok()) << mounted.error().message;
      ASSERT_TRUE(mounted.value().createFile(4096).ok()) << c.name;
      mounted.value().unmount();
    }
    FsImage image(dev);
    Superblock sb = image.loadSuperblock();
    c.corrupt(sb);
    sb.updateChecksum();
    image.storeSuperblock(sb);
    const auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_FALSE(mounted.ok()) << c.name;
    EXPECT_NE(mounted.error().message.find("mount: refused"), std::string::npos) << c.name;
    FsckOptions fsck;
    for (const bool force : {false, true}) {
      fsck.force = force;
      const auto checked = FsckTool::check(dev, fsck);
      ASSERT_FALSE(checked.ok()) << c.name;
      EXPECT_NE(checked.error().message.find("geometry"), std::string::npos) << c.name;
    }
  }
}

// 1024 << 40 is undefined: validation reports the field before any
// size check shifts by it (the sanitizer build checks the shift).
TEST(Mount, RejectsALogBlockSizeBeyondTheShiftWithoutShifting) {
  BlockDevice dev = makeFs();
  FsImage image(dev);
  Superblock sb = image.loadSuperblock();
  sb.log_block_size = 40;
  sb.updateChecksum();
  image.storeSuperblock(sb);
  const auto mounted = MountTool::mount(dev, MountOptions{});
  ASSERT_FALSE(mounted.ok());
  EXPECT_NE(mounted.error().message.find("s_log_block_size out of range"), std::string::npos)
      << mounted.error().message;
  FsckOptions fsck;
  for (const bool force : {false, true}) {
    fsck.force = force;
    EXPECT_FALSE(FsckTool::check(dev, fsck).ok()) << "force " << force;
  }
}

TEST(Mount, OptionInteractionChecks) {
  BlockDevice dev = makeFs(nullptr, 4096);
  struct Case {
    const char* name;
    void (*mutate)(MountOptions&);
  };
  const Case cases[] = {
      {"dax+data=journal",
       [](MountOptions& o) { o.dax = true; o.data_mode = DataMode::Journal; o.delalloc = false;
                             o.auto_da_alloc = false; }},
      {"noload-rw", [](MountOptions& o) { o.noload = true; o.read_only = false; }},
      {"async-commit-no-checksum",
       [](MountOptions& o) { o.journal_async_commit = true; o.journal_checksum = false; }},
      {"dioread+journal",
       [](MountOptions& o) { o.dioread_nolock = true; o.data_mode = DataMode::Journal;
                             o.delalloc = false; o.auto_da_alloc = false; }},
      {"delalloc+journal", [](MountOptions& o) { o.data_mode = DataMode::Journal; }},
      {"commit-range", [](MountOptions& o) { o.commit_interval = 301; }},
      {"stripe-range", [](MountOptions& o) { o.stripe = 3000000; }},
      {"readahead-pow2", [](MountOptions& o) { o.inode_readahead_blks = 33; }},
      {"batch-order", [](MountOptions& o) { o.min_batch_time = 5; o.max_batch_time = 1; }},
  };
  for (const Case& c : cases) {
    MountOptions o;
    c.mutate(o);
    EXPECT_FALSE(MountTool::mount(dev, o).ok()) << c.name;
  }
}

TEST(Mount, DaxNeedsFourKBlocks) {
  BlockDevice small = makeFs(nullptr, 1024);
  MountOptions o;
  o.dax = true;
  EXPECT_FALSE(MountTool::mount(small, o).ok());

  BlockDevice big = makeFs(nullptr, 4096);
  EXPECT_TRUE(MountTool::mount(big, o).ok());
}

TEST(MountedFs, CreateStatRemove) {
  BlockDevice dev = makeFs();
  auto mounted = MountTool::mount(dev, MountOptions{});
  ASSERT_TRUE(mounted.ok());
  MountedFs& fs = mounted.value();

  const auto ino = fs.createFile(5000);
  ASSERT_TRUE(ino.ok()) << ino.error().message;
  const auto stat = fs.statFile(ino.value());
  ASSERT_TRUE(stat.has_value());
  EXPECT_EQ(stat->size_bytes, 5000u);
  EXPECT_GE(stat->extents.size(), 1u);

  ASSERT_TRUE(fs.removeFile(ino.value()).ok());
  EXPECT_FALSE(fs.statFile(ino.value()).has_value());
}

TEST(MountedFs, FragmentationCap) {
  BlockDevice dev = makeFs();
  auto mounted = MountTool::mount(dev, MountOptions{});
  ASSERT_TRUE(mounted.ok());
  const auto ino = mounted.value().createFile(8 * 1024, /*max_extent_blocks=*/2);
  ASSERT_TRUE(ino.ok());
  const auto stat = mounted.value().statFile(ino.value());
  ASSERT_TRUE(stat.has_value());
  EXPECT_GE(stat->extents.size(), 2u);
}

TEST(MountedFs, FilesSurviveRemountAndFsckStaysClean) {
  BlockDevice dev = makeFs();
  std::uint32_t ino = 0;
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    const auto created = mounted.value().createFile(3000);
    ASSERT_TRUE(created.ok());
    ino = created.value();
    mounted.value().unmount();
  }
  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
  {
    auto mounted = MountTool::mount(dev, MountOptions{});
    ASSERT_TRUE(mounted.ok());
    const auto stat = mounted.value().statFile(ino);
    ASSERT_TRUE(stat.has_value());
    EXPECT_EQ(stat->size_bytes, 3000u);
  }
}

TEST(MountedFs, ReadOnlyRefusesWrites) {
  BlockDevice dev = makeFs();
  MountOptions o;
  o.read_only = true;
  auto mounted = MountTool::mount(dev, o);
  ASSERT_TRUE(mounted.ok());
  EXPECT_FALSE(mounted.value().createFile(1000).ok());
}

TEST(MountedFs, OutOfSpaceIsGraceful) {
  BlockDevice dev(1024, 1024);
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 1024;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  ASSERT_TRUE(MkfsTool::format(dev, o).ok());
  auto mounted = MountTool::mount(dev, MountOptions{});
  ASSERT_TRUE(mounted.ok());
  // Ask for far more than the filesystem holds.
  const auto ino = mounted.value().createFile(10 * 1024 * 1024);
  EXPECT_FALSE(ino.ok());
  mounted.value().unmount();
  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean())
      << "failed allocation must roll back cleanly: " << fsck.value().summary();
}

}  // namespace
}  // namespace fsdep::fsim
