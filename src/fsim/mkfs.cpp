#include "fsim/mkfs.h"

#include <algorithm>
#include <cstring>

#include "fsim/coverage.h"

namespace fsdep::fsim {

std::vector<std::string> MkfsTool::validate(const MkfsOptions& o, std::uint64_t device_bytes) {
  std::vector<std::string> violations;
  auto violated = [&](const std::string& what) { violations.push_back(what); };

  // --- Self dependencies. ---
  if (o.block_size < 1024 || o.block_size > 65536) {
    violated("mke2fs.blocksize must be in [1024, 65536]");
  }
  if ((o.block_size & (o.block_size - 1)) != 0) {
    violated("mke2fs.blocksize must be a power of two");
  }
  if (o.inode_size < 128 || o.inode_size > 4096) {
    violated("mke2fs.inode_size must be in [128, 4096]");
  }
  if (o.inode_ratio < 1024 || o.inode_ratio > 67108864) {
    violated("mke2fs.inode_ratio must be in [1024, 67108864]");
  }
  if (o.reserved_ratio > 50) {
    violated("mke2fs.reserved_ratio must be in [0, 50]");
  }
  const std::uint32_t bpg = o.blocks_per_group == 0 ? 8 * o.block_size : o.blocks_per_group;
  if (bpg < 256 || bpg > 65528) {
    violated("mke2fs.blocks_per_group must be in [256, 65528]");
  }
  if (bpg % 8 != 0) {
    violated("mke2fs.blocks_per_group must be a multiple of 8");
  }

  // --- Cross-parameter dependencies. ---
  if (o.meta_bg && o.resize_inode) {
    violated("mke2fs.meta_bg excludes mke2fs.resize_inode");
  }
  if (o.bigalloc && !o.extents) {
    violated("mke2fs.bigalloc requires mke2fs.extent");
  }
  if (o.sparse_super2 && o.resize_inode) {
    violated("mke2fs.sparse_super2 excludes mke2fs.resize_inode");
  }
  if (o.has_64bit && !o.extents) {
    violated("mke2fs.64bit requires mke2fs.extent");
  }
  if (o.quota && !o.has_journal) {
    violated("mke2fs.quota requires mke2fs.has_journal");
  }
  if (o.uninit_bg && o.metadata_csum) {
    violated("mke2fs.uninit_bg excludes mke2fs.metadata_csum");
  }
  if (o.resize_limit_blocks != 0 && !o.resize_inode) {
    violated("mke2fs.resize_limit requires mke2fs.resize_inode");
  }
  if (o.inline_data && !o.extents) {
    violated("mke2fs.inline_data requires mke2fs.extent");
  }
  if (o.encrypt && o.bigalloc) {
    violated("mke2fs.encrypt excludes mke2fs.bigalloc");
  }
  if (o.cluster_size != 0 && !o.bigalloc) {
    violated("mke2fs.cluster_size requires mke2fs.bigalloc");
  }
  if (o.inode_size > o.block_size) {
    violated("mke2fs.inode_size must be <= mke2fs.blocksize");
  }
  if (bpg > 8 * o.block_size) {
    violated("mke2fs.blocks_per_group must be <= 8 * mke2fs.blocksize");
  }
  if (o.cluster_size != 0 && o.cluster_size < o.block_size) {
    violated("mke2fs.cluster_size must be >= mke2fs.blocksize");
  }
  if (o.inode_ratio < o.block_size) {
    violated("mke2fs.inode_ratio must be >= mke2fs.blocksize");
  }

  // --- Whole-image invariant (offline Z dependency). ---
  const std::uint64_t size_blocks =
      o.size_blocks != 0 ? o.size_blocks : device_bytes / std::max<std::uint32_t>(o.block_size, 1);
  if (size_blocks < 16) {
    violated("mke2fs.size must provide at least 16 blocks");
  }
  return violations;
}

Result<Superblock> MkfsTool::format(BlockDevice& device, const MkfsOptions& o) {
  try {
    return formatImpl(device, o);
  } catch (const IoError& e) {
    return makeError(std::string("mkfs: I/O error: ") + e.what());
  }
}

Result<Superblock> MkfsTool::formatImpl(BlockDevice& device, const MkfsOptions& o) {
  const std::vector<std::string> violations = validate(o, device.sizeBytes());
  if (!violations.empty()) {
    std::string message = "mkfs: invalid configuration:";
    for (const std::string& v : violations) message += "\n  " + v;
    return makeError(message);
  }
  if (device.blockSize() != o.block_size) {
    return makeError("mkfs: device block size does not match -b");
  }

  coverPoint("mkfs.start");

  Superblock sb;
  sb.log_block_size = 0;
  while ((1024u << sb.log_block_size) < o.block_size) ++sb.log_block_size;
  sb.first_data_block = o.block_size == 1024 ? 1 : 0;
  sb.blocks_count = o.size_blocks != 0
                        ? o.size_blocks
                        : static_cast<std::uint32_t>(device.sizeBytes() / o.block_size);
  if (sb.blocks_count > device.blockCount()) {
    return makeError("mkfs: requested size exceeds the device");
  }
  sb.blocks_per_group = o.blocks_per_group == 0 ? 8 * o.block_size : o.blocks_per_group;
  // Keep group descriptors within one block.
  if (sb.groupCount() > sb.maxGroups()) {
    return makeError("mkfs: too many block groups for a one-block descriptor table");
  }
  sb.inode_size = o.inode_size;
  const std::uint64_t wanted_inodes =
      std::max<std::uint64_t>(16, static_cast<std::uint64_t>(sb.blocks_count) * o.block_size /
                                      o.inode_ratio);
  const std::uint32_t groups = sb.groupCount();
  sb.inodes_per_group = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(65536, (wanted_inodes + groups - 1) / groups));
  sb.inodes_per_group = std::max<std::uint32_t>(sb.inodes_per_group, 16);
  // Round up so the inode table fills whole blocks.
  const std::uint32_t inodes_per_block = o.block_size / o.inode_size;
  sb.inodes_per_group =
      (sb.inodes_per_group + inodes_per_block - 1) / inodes_per_block * inodes_per_block;
  sb.inodes_count = sb.inodes_per_group * groups;
  sb.reserved_blocks_count = static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(sb.blocks_count) * o.reserved_ratio / 100);
  sb.reserved_gdt_blocks = static_cast<std::uint16_t>(
      o.resize_inode ? std::max<std::uint32_t>(1, o.resize_limit_blocks / (8 * o.block_size))
                     : 0);

  sb.feature_compat = 0;
  sb.feature_incompat = 0;
  sb.feature_ro_compat = 0;
  if (o.has_journal) sb.feature_compat |= kCompatHasJournal;
  if (o.resize_inode) sb.feature_compat |= kCompatResizeInode;
  if (o.sparse_super2) sb.feature_compat |= kCompatSparseSuper2;
  if (o.sparse_super && !o.sparse_super2) sb.feature_ro_compat |= kRoCompatSparseSuper;
  if (o.meta_bg) sb.feature_incompat |= kIncompatMetaBg;
  if (o.extents) sb.feature_incompat |= kIncompatExtents;
  if (o.has_64bit) sb.feature_incompat |= kIncompat64Bit;
  if (o.flex_bg) sb.feature_incompat |= kIncompatFlexBg;
  if (o.inline_data) sb.feature_incompat |= kIncompatInlineData;
  if (o.quota) sb.feature_ro_compat |= kRoCompatQuota;
  if (o.bigalloc) sb.feature_ro_compat |= kRoCompatBigalloc;
  if (o.metadata_csum) sb.feature_ro_compat |= kRoCompatMetadataCsum;
  sb.desc_size = o.has_64bit ? 64 : 32;

  std::memset(sb.volume_name, 0, sizeof(sb.volume_name));
  std::strncpy(sb.volume_name, o.label.c_str(), sizeof(sb.volume_name) - 1);

  if (o.sparse_super2) {
    coverPoint("mkfs.sparse_super2_layout");
    sb.backup_bgs[0] = groups > 1 ? 1 : 0;
    sb.backup_bgs[1] = groups > 2 ? groups - 1 : 0;
  }
  if (o.bigalloc) coverPoint("mkfs.bigalloc_layout");
  if (o.meta_bg) coverPoint("mkfs.meta_bg_layout");
  if (o.has_64bit) coverPoint("mkfs.64bit_layout");
  if (o.quota) coverPoint("mkfs.quota_inodes");
  if (o.inline_data) coverPoint("mkfs.inline_data");
  if (o.encrypt) coverPoint("mkfs.encrypt_policy");
  if (o.uninit_bg) coverPoint("mkfs.uninit_bg");
  if (o.metadata_csum) coverPoint("mkfs.metadata_csum_seed");

  FsImage image(device);

  // Lay out each group: bitmaps + inode table after the (optional)
  // superblock/descriptor copies, then mark the metadata in the bitmap.
  std::uint32_t total_free = 0;
  for (std::uint32_t group = 0; group < groups; ++group) {
    const std::uint32_t first = FsImage::groupFirstBlock(sb, group);
    const std::uint32_t in_group = sb.blocksInGroup(group);
    std::uint32_t cursor = first;

    bool has_sb_copy = group == 0;
    for (const std::uint32_t g : backupGroups(sb)) has_sb_copy |= g == group;
    if (has_sb_copy) cursor += 2;  // superblock copy + descriptor copy
    cursor += sb.reserved_gdt_blocks;

    GroupDesc gd;
    gd.block_bitmap = cursor++;
    gd.inode_bitmap = cursor++;
    gd.inode_table = cursor;
    cursor += FsImage::inodeTableBlocks(sb);

    // The internal journal lives right after group 0's inode table.
    if (group == 0 && o.has_journal) {
      sb.journal_blocks = std::max<std::uint32_t>(64, sb.blocks_count / 64);
      sb.journal_start = cursor;
      cursor += sb.journal_blocks;
      coverPoint("mkfs.journal_area");
    }

    const std::uint32_t metadata = cursor - first;
    if (metadata >= in_group) return makeError("mkfs: group too small for metadata");
    gd.free_blocks_count = static_cast<std::uint16_t>(in_group - metadata);
    gd.free_inodes_count = static_cast<std::uint16_t>(
        group == 0 ? sb.inodes_per_group - (sb.first_inode - 1) : sb.inodes_per_group);
    image.storeGroupDesc(sb, group, gd);

    Bitmap block_bitmap(in_group);
    for (std::uint32_t b = 0; b < metadata; ++b) block_bitmap.set(b, true);
    image.storeBlockBitmap(sb, group, block_bitmap);

    Bitmap inode_bitmap(sb.inodes_per_group);
    if (group == 0) {
      for (std::uint32_t i = 0; i + 1 < sb.first_inode; ++i) inode_bitmap.set(i, true);
    }
    image.storeInodeBitmap(sb, group, inode_bitmap);

    // Zero the inode table.
    std::vector<std::uint8_t> zero(o.block_size, 0);
    for (std::uint32_t b = gd.inode_table; b < cursor; ++b) image.device().writeBlock(b, zero);

    total_free += in_group - metadata;
  }

  sb.free_blocks_count = total_free;
  sb.free_inodes_count = sb.inodes_count - (sb.first_inode - 1);
  sb.state = kStateValid;
  sb.updateChecksum();
  image.storeSuperblockWithBackups(sb);
  coverPoint("mkfs.done");
  return sb;
}

}  // namespace fsdep::fsim
