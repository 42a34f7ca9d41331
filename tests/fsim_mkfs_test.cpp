#include <gtest/gtest.h>

#include "fsim/fsck.h"
#include "fsim/mkfs.h"

namespace fsdep::fsim {
namespace {

MkfsOptions smallFs() {
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  return o;
}

TEST(Mkfs, ValidOptionsPass) {
  EXPECT_TRUE(MkfsTool::validate(smallFs(), 8 << 20).empty());
}

TEST(Mkfs, SelfDependencyViolations) {
  MkfsOptions o = smallFs();
  o.block_size = 512;
  EXPECT_FALSE(MkfsTool::validate(o, 8 << 20).empty());

  o = smallFs();
  o.inode_size = 64;
  EXPECT_FALSE(MkfsTool::validate(o, 8 << 20).empty());

  o = smallFs();
  o.reserved_ratio = 80;
  EXPECT_FALSE(MkfsTool::validate(o, 8 << 20).empty());

  o = smallFs();
  o.blocks_per_group = 100;  // < 256 and not a multiple of 8
  const auto violations = MkfsTool::validate(o, 8 << 20);
  EXPECT_GE(violations.size(), 2u);
}

TEST(Mkfs, CrossParameterViolations) {
  struct Case {
    const char* name;
    void (*mutate)(MkfsOptions&);
  };
  const Case cases[] = {
      {"meta_bg+resize_inode", [](MkfsOptions& o) { o.meta_bg = true; o.resize_inode = true; }},
      {"bigalloc-extents", [](MkfsOptions& o) { o.bigalloc = true; o.extents = false; }},
      {"sparse_super2+resize_inode",
       [](MkfsOptions& o) { o.sparse_super2 = true; o.resize_inode = true; }},
      {"64bit-extents", [](MkfsOptions& o) { o.has_64bit = true; o.extents = false; }},
      {"quota-journal", [](MkfsOptions& o) { o.quota = true; o.has_journal = false; }},
      {"uninit_bg+metadata_csum",
       [](MkfsOptions& o) { o.uninit_bg = true; o.metadata_csum = true; }},
      {"cluster-bigalloc", [](MkfsOptions& o) { o.cluster_size = 2048; o.bigalloc = false; }},
      {"inline_data-extents", [](MkfsOptions& o) { o.inline_data = true; o.extents = false; }},
      {"encrypt+bigalloc", [](MkfsOptions& o) { o.encrypt = true; o.bigalloc = true; }},
      {"inode>block", [](MkfsOptions& o) { o.inode_size = 2048; o.block_size = 1024; }},
  };
  for (const Case& c : cases) {
    MkfsOptions o = smallFs();
    c.mutate(o);
    EXPECT_FALSE(MkfsTool::validate(o, 8 << 20).empty()) << c.name;
  }
}

TEST(Mkfs, FormatProducesCleanFilesystem) {
  BlockDevice dev(4096, 1024);
  const auto sb = MkfsTool::format(dev, smallFs());
  ASSERT_TRUE(sb.ok()) << sb.error().message;
  EXPECT_EQ(sb.value().blocks_count, 2048u);
  EXPECT_EQ(sb.value().magic, kExt4Magic);

  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

TEST(Mkfs, RejectsInvalidConfiguration) {
  BlockDevice dev(4096, 1024);
  MkfsOptions o = smallFs();
  o.meta_bg = true;
  o.resize_inode = true;
  const auto sb = MkfsTool::format(dev, o);
  ASSERT_FALSE(sb.ok());
  EXPECT_NE(sb.error().message.find("meta_bg"), std::string::npos);
}

TEST(Mkfs, RejectsDeviceBlockSizeMismatch) {
  BlockDevice dev(4096, 2048);
  const auto sb = MkfsTool::format(dev, smallFs());  // wants 1024
  EXPECT_FALSE(sb.ok());
}

TEST(Mkfs, RejectsSizeBeyondDevice) {
  BlockDevice dev(1024, 1024);
  MkfsOptions o = smallFs();
  o.size_blocks = 4096;
  EXPECT_FALSE(MkfsTool::format(dev, o).ok());
}

TEST(Mkfs, RejectsMoreGroupsThanTheDescriptorTableHolds) {
  // 2^32 - 1 blocks of 1 KiB are 524,288 groups (0 when counted in 32
  // bits, which mkfs then divided by).
  BlockDevice dev(0xFFFFFFFFu, 1024);
  MkfsOptions o = smallFs();
  o.size_blocks = 0xFFFFFFFFu;
  const auto sb = MkfsTool::format(dev, o);
  ASSERT_FALSE(sb.ok());
  EXPECT_NE(sb.error().message.find("one-block descriptor table"), std::string::npos)
      << sb.error().message;
}

TEST(Mkfs, SparseSuper2SetsBackupGroups) {
  BlockDevice dev(4096, 1024);
  MkfsOptions o = smallFs();
  o.sparse_super2 = true;
  o.resize_inode = false;
  const auto sb = MkfsTool::format(dev, o);
  ASSERT_TRUE(sb.ok());
  EXPECT_TRUE(sb.value().hasCompat(kCompatSparseSuper2));
  EXPECT_EQ(sb.value().backup_bgs[0], 1u);
  EXPECT_EQ(sb.value().backup_bgs[1], sb.value().groupCount() - 1);
}

TEST(Mkfs, FeatureFlagsLandInSuperblock) {
  BlockDevice dev(8192, 1024);
  MkfsOptions o = smallFs();
  o.has_64bit = true;
  o.quota = true;
  o.metadata_csum = true;
  o.uninit_bg = false;
  const auto sb = MkfsTool::format(dev, o);
  ASSERT_TRUE(sb.ok());
  EXPECT_TRUE(sb.value().hasIncompat(kIncompat64Bit));
  EXPECT_TRUE(sb.value().hasRoCompat(kRoCompatQuota));
  EXPECT_TRUE(sb.value().hasRoCompat(kRoCompatMetadataCsum));
  EXPECT_EQ(sb.value().desc_size, 64);
}

TEST(Mkfs, LabelIsStored) {
  BlockDevice dev(4096, 1024);
  MkfsOptions o = smallFs();
  o.label = "scratch01";
  const auto sb = MkfsTool::format(dev, o);
  ASSERT_TRUE(sb.ok());
  EXPECT_STREQ(sb.value().volume_name, "scratch01");
}

TEST(Mkfs, OversizedLabelIsTruncatedSafely) {
  BlockDevice dev(4096, 1024);
  MkfsOptions o = smallFs();
  o.label = "this-label-is-way-too-long-for-sixteen-bytes";
  const auto sb = MkfsTool::format(dev, o);
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sb.value().volume_name[15], '\0');
}

// Property sweep: every geometry in the grid formats to a clean fs whose
// accounting matches its bitmaps (mkfs/fsck agreement invariant).
struct Geometry {
  std::uint32_t block_size;
  std::uint32_t size_blocks;
  std::uint32_t blocks_per_group;
  bool sparse_super2;
  bool bigalloc;
};

class MkfsGeometrySweep : public ::testing::TestWithParam<Geometry> {};

TEST_P(MkfsGeometrySweep, FormatsCleanly) {
  const Geometry g = GetParam();
  BlockDevice dev(g.size_blocks + 64, g.block_size);
  MkfsOptions o;
  o.block_size = g.block_size;
  o.size_blocks = g.size_blocks;
  o.blocks_per_group = g.blocks_per_group;
  o.inode_ratio = std::max<std::uint32_t>(g.block_size, 8192);
  o.sparse_super2 = g.sparse_super2;
  o.resize_inode = !g.sparse_super2;
  o.bigalloc = g.bigalloc;
  o.cluster_size = g.bigalloc ? g.block_size * 2 : 0;
  const auto sb = MkfsTool::format(dev, o);
  ASSERT_TRUE(sb.ok()) << sb.error().message;

  const auto fsck = FsckTool::check(dev, FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MkfsGeometrySweep,
    ::testing::Values(Geometry{1024, 2048, 512, false, false},
                      Geometry{1024, 2048, 512, true, false},
                      Geometry{1024, 4096, 1024, false, false},
                      Geometry{2048, 2048, 512, false, false},
                      Geometry{2048, 4096, 1024, true, false},
                      Geometry{4096, 4096, 1024, false, false},
                      Geometry{4096, 8192, 2048, false, true},
                      Geometry{1024, 1024, 256, false, false},
                      Geometry{1024, 3000, 512, false, false},  // short last group
                      Geometry{2048, 5000, 512, true, false},
                      Geometry{4096, 10000, 4096, false, false},
                      Geometry{1024, 8184, 1024, false, false}));

}  // namespace
}  // namespace fsdep::fsim
