#include <gtest/gtest.h>

#include <cstdint>

#include "fsim/block_device.h"
#include "fsim/image.h"
#include "fsim/layout.h"

namespace fsdep::fsim {
namespace {

/// A bad block: a transient that outlasts every retry until clearFaults().
TransientFault badBlock(std::uint32_t block, bool on_write) {
  return TransientFault{.block = block, .failures = UINT32_MAX, .on_write = on_write};
}

/// A plan with only the given bad blocks.
FaultPlan badBlocks(std::vector<TransientFault> faults) {
  FaultPlan plan;
  plan.transients = std::move(faults);
  return plan;
}

TEST(BlockDevice, ReadWriteRoundTrip) {
  BlockDevice dev(16, 1024);
  std::vector<std::uint8_t> out(1024, 0xAB);
  dev.writeBlock(3, out);
  std::vector<std::uint8_t> in(1024);
  dev.readBlock(3, in);
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.readCount(), 1u);
  EXPECT_EQ(dev.writeCount(), 1u);
}

TEST(BlockDevice, OutOfRangeThrows) {
  BlockDevice dev(4, 1024);
  std::vector<std::uint8_t> buf(1024);
  EXPECT_THROW(dev.readBlock(4, buf), IoError);
  EXPECT_THROW(dev.writeBlock(99, buf), IoError);
}

TEST(BlockDevice, RejectsNonPowerOfTwoBlockSize) {
  EXPECT_THROW(BlockDevice(4, 1000), IoError);
  EXPECT_THROW(BlockDevice(4, 0), IoError);
}

TEST(BlockDevice, ByteAccess) {
  BlockDevice dev(4, 1024);
  const std::uint8_t payload[] = {1, 2, 3, 4};
  dev.writeBytes(1024, payload);
  std::uint8_t in[4] = {};
  dev.readBytes(1024, in);
  EXPECT_EQ(in[0], 1);
  EXPECT_EQ(in[3], 4);
  EXPECT_THROW(dev.readBytes(4096 - 2, in), IoError);
}

TEST(BlockDevice, FaultInjection) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> buf(1024);
  dev.setFaultPlan(badBlocks({badBlock(2, /*on_write=*/false), badBlock(3, /*on_write=*/true)}));
  EXPECT_THROW(dev.readBlock(2, buf), IoError);
  EXPECT_THROW(dev.writeBlock(3, buf), IoError);
  dev.clearFaults();
  EXPECT_NO_THROW(dev.readBlock(2, buf));
  EXPECT_NO_THROW(dev.writeBlock(3, buf));
}

TEST(BlockDevice, CorruptionFlipsBytes) {
  BlockDevice dev(4, 1024);
  std::vector<std::uint8_t> zero(1024, 0);
  dev.writeBlock(1, zero);
  dev.corruptBlock(1, 10);
  std::vector<std::uint8_t> in(1024);
  dev.readBlock(1, in);
  EXPECT_EQ(in[10], 0xFF);
  EXPECT_EQ(in[11], 0x00);
}

TEST(BlockDevice, ResizeGrowsZeroed) {
  BlockDevice dev(4, 1024);
  dev.resize(8);
  EXPECT_EQ(dev.blockCount(), 8u);
  std::vector<std::uint8_t> in(1024, 0xFF);
  dev.readBlock(7, in);
  for (const std::uint8_t b : in) EXPECT_EQ(b, 0);
}

TEST(BlockDevice, FullSizeDeviceCostsOnlyWhatIsWritten) {
  // 2^32 - 1 blocks: the block table reaches only the chunk written.
  const std::uint32_t last = 0xFFFFFFFEu;
  BlockDevice dev(last + 1, 1024);
  std::vector<std::uint8_t> out(1024, 0x5A);
  dev.writeBlock(last, out);
  std::vector<std::uint8_t> in(1024);
  dev.readBlock(last, in);
  EXPECT_EQ(in, out);
  dev.readBlock(last - 1, in);  // never written
  EXPECT_EQ(in, std::vector<std::uint8_t>(1024, 0));
  dev.readBlock(0, in);
  EXPECT_EQ(in, std::vector<std::uint8_t>(1024, 0));
}

TEST(BlockDevice, ShrinkDropsWrittenBlocks) {
  BlockDevice dev(10000, 1024);
  const std::vector<std::uint8_t> out(1024, 0x77);
  for (const std::uint32_t block : {10u, 4200u, 9999u}) dev.writeBlock(block, out);
  dev.resize(4100);  // cuts 4200 and 9999 off, keeps 10
  dev.resize(10000);
  std::vector<std::uint8_t> in(1024);
  dev.readBlock(10, in);
  EXPECT_EQ(in, out);
  for (const std::uint32_t block : {4200u, 9999u}) {
    dev.readBlock(block, in);
    EXPECT_EQ(in, std::vector<std::uint8_t>(1024, 0)) << block;
  }
}

TEST(BlockDevice, CrashTriggerFreezesDevice) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> buf(1024, 0xAA);
  FaultPlan plan;
  plan.crash_at_write = 2;
  dev.setFaultPlan(plan);
  dev.writeBlock(0, buf);
  dev.writeBlock(1, buf);
  EXPECT_THROW(dev.writeBlock(2, buf), IoError);
  EXPECT_TRUE(dev.frozen());
  // The machine lost power: everything fails until "reboot".
  EXPECT_THROW(dev.writeBlock(3, buf), IoError);
  EXPECT_THROW(dev.readBlock(0, buf), IoError);
  dev.clearFaults();
  EXPECT_FALSE(dev.frozen());
  EXPECT_NO_THROW(dev.readBlock(0, buf));
}

TEST(BlockDevice, TornWritePersistsPrefixOnly) {
  BlockDevice dev(4, 1024);
  std::vector<std::uint8_t> ones(1024, 0xFF);
  FaultPlan plan;
  plan.crash_at_write = 0;
  plan.torn_mode = TornMode::Prefix;
  plan.torn_prefix_bytes = 16;
  dev.setFaultPlan(plan);
  EXPECT_THROW(dev.writeBlock(2, ones), IoError);
  dev.clearFaults();
  std::vector<std::uint8_t> in(1024);
  dev.readBlock(2, in);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(in[i], 0xFF) << i;
  for (std::size_t i = 16; i < 1024; ++i) ASSERT_EQ(in[i], 0x00) << i;
}

TEST(BlockDevice, SeededTornWriteIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    BlockDevice dev(4, 1024);
    std::vector<std::uint8_t> ones(1024, 0xFF);
    FaultPlan plan;
    plan.seed = seed;
    plan.crash_at_write = 1;
    plan.torn_mode = TornMode::Seeded;
    dev.setFaultPlan(plan);
    dev.writeBlock(0, ones);
    EXPECT_THROW(dev.writeBlock(1, ones), IoError);
    dev.clearFaults();
    std::vector<std::uint8_t> in(1024);
    dev.readBlock(1, in);
    return in;
  };
  EXPECT_EQ(run(7), run(7));
  // Different seeds tear at different lengths (for these two they do).
  EXPECT_NE(run(7), run(8));
}

TEST(BlockDevice, FailAfterWritesKillsDevice) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> buf(1024, 1);
  FaultPlan plan;
  plan.fail_after_writes = 2;
  dev.setFaultPlan(plan);
  dev.writeBlock(0, buf);
  dev.writeBlock(1, buf);
  EXPECT_THROW(dev.writeBlock(2, buf), IoError);
  // Dead is permanent — retrying must not resurrect it.
  EXPECT_THROW(dev.writeBlock(2, buf), IoError);
  // Reads still work: the device stopped accepting writes, not reads.
  EXPECT_NO_THROW(dev.readBlock(0, buf));
  dev.clearFaults();
  EXPECT_NO_THROW(dev.writeBlock(2, buf));
}

TEST(BlockDevice, TransientErrorClearsUnderRetry) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> buf(1024, 2);
  FaultPlan plan;
  plan.transients.push_back(TransientFault{.block = 3, .failures = 2, .on_write = true});
  dev.setFaultPlan(plan);
  // kMaxAttempts (3) attempts; the fault clears after 2 failures.
  EXPECT_NO_THROW(dev.writeBlock(3, buf));
  EXPECT_EQ(dev.retryCount(), 2u);
  EXPECT_EQ(dev.writeCount(), 1u);
}

TEST(BlockDevice, TransientOutlastingRetryBudgetFails) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> buf(1024, 3);
  FaultPlan plan;
  plan.transients.push_back(TransientFault{.block = 3, .failures = 5, .on_write = true});
  dev.setFaultPlan(plan);
  static_assert(BlockDevice::kMaxAttempts == 3);
  EXPECT_THROW(dev.writeBlock(3, buf), IoError);
  EXPECT_EQ(dev.retryCount(), 2u);  // attempts 1 and 2 were retried
  EXPECT_EQ(dev.writeCount(), 0u);
  // Two failures remain, inside the next access's three attempts.
  EXPECT_NO_THROW(dev.writeBlock(3, buf));
  EXPECT_EQ(dev.retryCount(), 4u);
}

TEST(BlockDevice, TransientReadFaults) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> buf(1024);
  FaultPlan plan;
  plan.transients.push_back(TransientFault{.block = 1, .failures = 1, .on_write = false});
  dev.setFaultPlan(plan);
  EXPECT_NO_THROW(dev.readBlock(1, buf));  // retried once, then clean
  EXPECT_EQ(dev.retryCount(), 1u);
}

TEST(BlockDevice, PlanWriteIndexCountsPersistedWritesOnly) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> buf(1024, 4);
  FaultPlan plan;
  plan.transients.push_back(TransientFault{.block = 2, .failures = 1, .on_write = true});
  dev.setFaultPlan(plan);
  dev.writeBlock(0, buf);
  dev.writeBlock(2, buf);  // one failed attempt + one persisted write
  EXPECT_EQ(dev.planWriteIndex(), 2u);
  EXPECT_EQ(dev.writeCount(), 2u);
  EXPECT_EQ(dev.retryCount(), 1u);
}

TEST(BlockDevice, ResetStatsKeepsFaults) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> buf(1024, 5);
  dev.writeBlock(0, buf);
  dev.readBlock(0, buf);
  dev.setFaultPlan(badBlocks({badBlock(4, /*on_write=*/true)}));
  dev.resetStats();
  EXPECT_EQ(dev.readCount(), 0u);
  EXPECT_EQ(dev.writeCount(), 0u);
  EXPECT_EQ(dev.retryCount(), 0u);
  // resetStats observes, clearFaults heals — they are independent.
  EXPECT_THROW(dev.writeBlock(4, buf), IoError);
}

// --- Sparse storage: a never-written block must behave as zeros -------

TEST(BlockDevice, NeverWrittenBlockReadsAsZeros) {
  BlockDevice dev(8, 1024);
  std::vector<std::uint8_t> in(1024, 0xAB);
  dev.readBlock(5, in);
  EXPECT_EQ(in, std::vector<std::uint8_t>(1024, 0));
  EXPECT_EQ(dev.readCount(), 1u);
}

TEST(BlockDevice, ByteRangeAcrossBlockBoundaryRoundTrips) {
  BlockDevice dev(4, 512);
  std::vector<std::uint8_t> out(700);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(i * 7 + 1);
  dev.writeBytes(300, out);  // blocks 0, 1 and 2
  std::vector<std::uint8_t> in(out.size());
  dev.readBytes(300, in);
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.writeCount(), 1u);
  EXPECT_EQ(dev.readCount(), 1u);
}

TEST(BlockDevice, ReadSpansWrittenAndNeverWrittenBlocks) {
  BlockDevice dev(4, 512);
  dev.writeBlock(1, std::vector<std::uint8_t>(512, 0x5A));
  std::vector<std::uint8_t> in(512, 0xEE);
  dev.readBytes(768, in);  // the second half of block 1, the first of block 2
  for (std::size_t i = 0; i < 256; ++i) ASSERT_EQ(in[i], 0x5A) << i;
  for (std::size_t i = 256; i < 512; ++i) ASSERT_EQ(in[i], 0x00) << i;
}

TEST(BlockDevice, ShrinkThenGrowReadsZeros) {
  BlockDevice dev(8, 1024);
  dev.writeBlock(7, std::vector<std::uint8_t>(1024, 0x77));
  dev.resize(4);
  std::vector<std::uint8_t> in(1024, 0xAB);
  EXPECT_THROW(dev.readBlock(7, in), IoError);
  dev.resize(8);
  dev.readBlock(7, in);
  EXPECT_EQ(in, std::vector<std::uint8_t>(1024, 0));
}

TEST(BlockDevice, CorruptingANeverWrittenBlockFlipsAZero) {
  BlockDevice dev(4, 1024);
  dev.corruptBlock(3, 1024 + 5);  // the offset wraps within the block
  std::vector<std::uint8_t> in(1024);
  dev.readBlock(3, in);
  EXPECT_EQ(in[5], 0xFF);
  EXPECT_EQ(in[4], 0x00);
  EXPECT_EQ(in[6], 0x00);
}

TEST(BlockDevice, TornByteRangeAcrossBoundaryPersistsPrefixOnly) {
  BlockDevice dev(4, 512);
  FaultPlan plan;
  plan.crash_at_write = 0;
  plan.torn_mode = TornMode::Prefix;
  plan.torn_prefix_bytes = 300;
  dev.setFaultPlan(plan);
  EXPECT_THROW(dev.writeBytes(400, std::vector<std::uint8_t>(600, 0xFF)), IoError);
  dev.clearFaults();
  std::vector<std::uint8_t> in(2048);
  dev.readBytes(0, in);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(in[i], i >= 400 && i < 700 ? 0xFF : 0x00) << i;
  }
}

TEST(BlockDevice, ByteRangeChecksFaultsOnEveryBlock) {
  std::vector<std::uint8_t> buf(1024, 0x11);
  {
    BlockDevice dev(8, 512);
    dev.setFaultPlan(badBlocks({badBlock(3, /*on_write=*/false)}));
    EXPECT_THROW(dev.readBytes(1024, buf), IoError);  // blocks 2 and 3
    EXPECT_EQ(dev.readCount(), 0u);
  }
  {
    BlockDevice dev(8, 512);
    dev.setFaultPlan(badBlocks({badBlock(3, /*on_write=*/true)}));
    EXPECT_THROW(dev.writeBytes(1024, buf), IoError);
    EXPECT_EQ(dev.writeCount(), 0u);
    std::vector<std::uint8_t> in(512, 0xAB);
    dev.readBlock(2, in);  // no byte moved, not even into the healthy block
    EXPECT_EQ(in, std::vector<std::uint8_t>(512, 0));
  }
  {
    BlockDevice dev(8, 512);
    FaultPlan plan;
    plan.transients.push_back(TransientFault{.block = 3, .failures = 1, .on_write = false});
    dev.setFaultPlan(plan);
    EXPECT_NO_THROW(dev.readBytes(1024, buf));
    EXPECT_EQ(dev.retryCount(), 1u);
    EXPECT_EQ(dev.readCount(), 1u);
  }
  {
    BlockDevice dev(8, 512);
    FaultPlan plan;
    plan.transients.push_back(TransientFault{.block = 3, .failures = 1, .on_write = true});
    dev.setFaultPlan(plan);
    EXPECT_NO_THROW(dev.writeBytes(1024, buf));
    EXPECT_EQ(dev.retryCount(), 1u);
    EXPECT_EQ(dev.writeCount(), 1u);
    EXPECT_EQ(dev.planWriteIndex(), 1u);  // one range, one write index
  }
}

TEST(Bitmap, SetGetCount) {
  Bitmap bm(100);
  EXPECT_FALSE(bm.get(5));
  bm.set(5, true);
  bm.set(99, true);
  EXPECT_TRUE(bm.get(5));
  EXPECT_TRUE(bm.get(99));
  EXPECT_EQ(bm.countSet(100), 2u);
  bm.set(5, false);
  EXPECT_EQ(bm.countSet(100), 1u);
}

TEST(Bitmap, OutOfRangeReadsAsUsed) {
  Bitmap bm(8);
  EXPECT_TRUE(bm.get(8));
  EXPECT_TRUE(bm.get(1000));
}

TEST(Superblock, SerializeRoundTrip) {
  Superblock sb;
  sb.blocks_count = 123456;
  sb.free_blocks_count = 777;
  sb.log_block_size = 2;
  sb.feature_compat = kCompatSparseSuper2;
  sb.feature_incompat = kIncompatExtents | kIncompat64Bit;
  sb.backup_bgs[0] = 1;
  sb.backup_bgs[1] = 31;
  sb.inode_size = 256;
  sb.volume_name[0] = 'v';
  sb.updateChecksum();

  std::uint8_t buf[Superblock::kDiskSize];
  sb.serialize(buf);
  const Superblock back = Superblock::deserialize(buf);
  EXPECT_EQ(back.blocks_count, sb.blocks_count);
  EXPECT_EQ(back.free_blocks_count, sb.free_blocks_count);
  EXPECT_EQ(back.feature_incompat, sb.feature_incompat);
  EXPECT_EQ(back.backup_bgs[1], 31u);
  EXPECT_EQ(back.volume_name[0], 'v');
  EXPECT_EQ(back.checksum, sb.checksum);
  EXPECT_EQ(back.computeChecksum(), back.checksum);
}

TEST(Superblock, ChecksumDetectsTampering) {
  Superblock sb;
  sb.blocks_count = 4096;
  sb.updateChecksum();
  sb.blocks_count = 4097;
  EXPECT_NE(sb.computeChecksum(), sb.checksum);
}

TEST(Superblock, GroupGeometry) {
  Superblock sb;
  sb.first_data_block = 1;
  sb.blocks_count = 2048;
  sb.blocks_per_group = 512;
  EXPECT_EQ(sb.groupCount(), 4u);
  EXPECT_EQ(sb.blocksInGroup(0), 512u);
  EXPECT_EQ(sb.blocksInGroup(3), 511u);  // last group is short by one
  EXPECT_EQ(sb.blocksInGroup(4), 0u);
}

TEST(Superblock, GroupCountIsSixtyFourBitSafe) {
  // 1 KiB blocks, 8192 blocks per group: the rounding-up sum of a count
  // near 2^32 used to wrap to 0 groups in 32 bits.
  Superblock sb;
  sb.log_block_size = 0;
  sb.first_data_block = 1;
  sb.blocks_per_group = 8192;
  sb.blocks_count = 0xFFFFFFFFu;
  EXPECT_EQ(sb.groupCount(), 524288u);
  EXPECT_GT(sb.groupCount(), sb.maxGroups());
  sb.blocks_count = 0;  // below first_data_block: no groups at all
  EXPECT_EQ(sb.groupCount(), 0u);
  EXPECT_EQ(sb.maxGroups(), 32u);  // one 1 KiB block of 32-byte descriptors
  sb.log_block_size = 40;          // corrupt: no block size, no groups
  EXPECT_EQ(sb.maxGroups(), 0u);
}

TEST(Layout, SparseBackupGroups) {
  EXPECT_TRUE(isSparseBackupGroup(0));
  EXPECT_TRUE(isSparseBackupGroup(1));
  EXPECT_TRUE(isSparseBackupGroup(3));
  EXPECT_TRUE(isSparseBackupGroup(9));
  EXPECT_TRUE(isSparseBackupGroup(27));
  EXPECT_TRUE(isSparseBackupGroup(5));
  EXPECT_TRUE(isSparseBackupGroup(25));
  EXPECT_TRUE(isSparseBackupGroup(7));
  EXPECT_TRUE(isSparseBackupGroup(49));
  EXPECT_FALSE(isSparseBackupGroup(2));
  EXPECT_FALSE(isSparseBackupGroup(4));
  EXPECT_FALSE(isSparseBackupGroup(6));
  EXPECT_FALSE(isSparseBackupGroup(10));
}

TEST(Layout, BackupGroupSelectionByFeature) {
  Superblock sb;
  sb.first_data_block = 0;
  sb.blocks_count = 512 * 30;
  sb.blocks_per_group = 512;

  sb.feature_ro_compat = kRoCompatSparseSuper;
  const auto sparse = backupGroups(sb);
  EXPECT_EQ(sparse, (std::vector<std::uint32_t>{1, 3, 5, 7, 9, 25, 27}));

  sb.feature_ro_compat = 0;
  sb.feature_compat = kCompatSparseSuper2;
  sb.backup_bgs[0] = 1;
  sb.backup_bgs[1] = 29;
  const auto sparse2 = backupGroups(sb);
  EXPECT_EQ(sparse2, (std::vector<std::uint32_t>{1, 29}));

  sb.feature_compat = 0;
  const auto all = backupGroups(sb);
  EXPECT_EQ(all.size(), 29u);  // every group except 0
}

TEST(Inode, SerializeRoundTrip) {
  Inode inode;
  inode.size_bytes = 40960;
  inode.links = 1;
  inode.extents = {{100, 8}, {300, 2}};
  std::uint8_t buf[Inode::kDiskSize];
  inode.serialize(buf);
  const Inode back = Inode::deserialize(buf);
  EXPECT_EQ(back.size_bytes, inode.size_bytes);
  EXPECT_EQ(back.links, 1);
  ASSERT_EQ(back.extents.size(), 2u);
  EXPECT_EQ(back.extents[1].start, 300u);
  EXPECT_EQ(back.extents[1].length, 2u);
}

}  // namespace
}  // namespace fsdep::fsim
