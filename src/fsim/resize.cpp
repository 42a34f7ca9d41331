#include "fsim/resize.h"

#include <algorithm>

#include "fsim/coverage.h"

namespace fsdep::fsim {

namespace {

/// Lays out a brand-new group's metadata (same layout rules as mkfs).
/// Returns the number of free blocks left in the group.
std::uint32_t layoutNewGroup(FsImage& image, const Superblock& sb, std::uint32_t group) {
  const std::uint32_t first = FsImage::groupFirstBlock(sb, group);
  const std::uint32_t in_group = sb.blocksInGroup(group);
  std::uint32_t cursor = first;

  bool has_sb_copy = false;
  for (const std::uint32_t g : backupGroups(sb)) has_sb_copy |= g == group;
  if (has_sb_copy) cursor += 2;
  cursor += sb.reserved_gdt_blocks;

  GroupDesc gd;
  gd.block_bitmap = cursor++;
  gd.inode_bitmap = cursor++;
  gd.inode_table = cursor;
  cursor += FsImage::inodeTableBlocks(sb);

  const std::uint32_t metadata = cursor - first;
  if (metadata >= in_group) throw IoError("resize: new group too small for metadata");
  gd.free_blocks_count = static_cast<std::uint16_t>(in_group - metadata);
  gd.free_inodes_count = static_cast<std::uint16_t>(sb.inodes_per_group);
  image.storeGroupDesc(sb, group, gd);

  Bitmap block_bitmap(in_group);
  for (std::uint32_t b = 0; b < metadata; ++b) block_bitmap.set(b, true);
  image.storeBlockBitmap(sb, group, block_bitmap);
  image.storeInodeBitmap(sb, group, Bitmap(sb.inodes_per_group));

  std::vector<std::uint8_t> zero(sb.blockSize(), 0);
  for (std::uint32_t b = gd.inode_table; b < cursor; ++b) image.device().writeBlock(b, zero);

  return in_group - metadata;
}

}  // namespace

std::vector<std::string> ResizeTool::validate(const Superblock& sb, const ResizeOptions& o) {
  std::vector<std::string> violations;
  if (sb.magic != kExt4Magic) {
    violations.push_back("not an fsim/ext4 filesystem");
    return violations;
  }
  if (o.new_size_blocks == 0) {
    violations.push_back("resize2fs.size must be positive");
  }
  if ((sb.state & kStateValid) == 0 && !o.force) {
    violations.push_back("filesystem is dirty; run fsck or use resize2fs.force");
  }
  if (o.online && !sb.hasCompat(kCompatResizeInode)) {
    violations.push_back("resize2fs.online requires mke2fs.resize_inode");
  }
  const std::uint32_t in_use = sb.blocks_count - sb.free_blocks_count;
  if (o.new_size_blocks != 0 && o.new_size_blocks < in_use + 8) {
    violations.push_back("resize2fs.size below the allocated minimum");
  }
  return violations;
}

Result<ResizeReport> ResizeTool::resize(BlockDevice& device, const ResizeOptions& o) {
  try {
    return resizeImpl(device, o);
  } catch (const IoError& e) {
    // A fault mid-resize (crash, device death, exhausted retries) must
    // never unwind into the caller: the campaign driving us needs a
    // structured outcome to classify.
    return makeError(std::string("resize2fs: I/O error: ") + e.what());
  }
}

Result<ResizeReport> ResizeTool::resizeImpl(BlockDevice& device, const ResizeOptions& o) {
  FsImage image(device);
  Superblock sb = image.loadSuperblock();

  const std::vector<std::string> violations = validate(sb, o);
  if (!violations.empty()) {
    std::string message = "resize2fs: refused:";
    for (const std::string& v : violations) message += "\n  " + v;
    return makeError(message);
  }

  ResizeReport report;
  report.old_blocks = sb.blocks_count;
  report.new_blocks = o.new_size_blocks;

  if (o.new_size_blocks == sb.blocks_count) {
    report.notes.push_back("nothing to do");
    return report;
  }

  if (o.new_size_blocks > sb.blocks_count) {
    // ---- Grow. ----
    report.grew = true;
    coverPoint("resize.grow");
    if (o.online) coverPoint("resize.online_grow");

    const std::uint32_t old_groups = sb.groupCount();
    const std::uint32_t old_last = old_groups - 1;
    const std::uint32_t old_last_blocks = sb.blocksInGroup(old_last);

    Superblock new_sb = sb;
    new_sb.blocks_count = o.new_size_blocks;
    if (new_sb.groupCount() > sb.maxGroups()) {
      return makeError("resize2fs: descriptor table cannot address that many groups");
    }

    // Make sure the device is large enough.
    if (o.new_size_blocks > device.blockCount()) device.resize(o.new_size_blocks);

    // A trailing group too small to hold its own metadata cannot exist;
    // round the target down to the previous group boundary (the real
    // resize2fs clamps such targets the same way).
    {
      const std::uint32_t last_group = new_sb.groupCount() - 1;
      const std::uint32_t needed =
          FsImage::groupMetadataBlocks(new_sb, last_group) + 1;
      if (last_group >= sb.groupCount() && new_sb.blocksInGroup(last_group) <= needed) {
        new_sb.blocks_count =
            new_sb.first_data_block + last_group * new_sb.blocks_per_group;
        report.notes.push_back("target rounded down: trailing group too small for metadata");
        if (new_sb.blocks_count <= sb.blocks_count) {
          report.new_blocks = sb.blocks_count;
          report.notes.push_back("nothing to do after rounding");
          return report;
        }
      }
    }

    const bool sparse2 = sb.hasCompat(kCompatSparseSuper2);
    const bool buggy = sparse2 && !o.fix_sparse_super2_accounting;
    if (sparse2) coverPoint("resize.sparse_super2_path");

    // Crash guard (fixed behaviour only): clear the valid bit before the
    // first metadata mutation so an interrupted resize is detectable.
    // The buggy release mutated metadata under a clean-looking
    // superblock — a crash there is silent corruption.
    const bool guarded = o.fix_sparse_super2_accounting;
    if (guarded) {
      Superblock marked = sb;
      marked.state = static_cast<std::uint16_t>(marked.state & ~kStateValid);
      marked.updateChecksum();
      image.storeSuperblock(marked);
      coverPoint("resize.crash_guard");
    }

    // Credit the blocks the (previously short) last group gains.
    const std::uint32_t new_last_blocks_in_old_group = new_sb.blocksInGroup(old_last);
    const std::uint32_t gained =
        new_last_blocks_in_old_group > old_last_blocks
            ? new_last_blocks_in_old_group - old_last_blocks
            : 0;
    if (gained > 0) {
      GroupDesc gd = image.loadGroupDesc(sb, old_last);
      if (buggy) {
        // HISTORICAL BUG (paper Figure 1): the free count of the last
        // group was computed before the new blocks were added, so the
        // gained blocks are visible in the bitmap but never credited.
        coverPoint("resize.sparse_super2_stale_accounting");
        report.notes.push_back("last-group free count computed before expansion (bug)");
      } else {
        gd.free_blocks_count = static_cast<std::uint16_t>(gd.free_blocks_count + gained);
        new_sb.free_blocks_count += gained;
        image.storeGroupDesc(new_sb, old_last, gd);
      }
    }

    // Update sparse_super2 backup placement before laying out new groups
    // so their metadata accounts for the superblock copies.
    if (sparse2 && !buggy) {
      new_sb.backup_bgs[1] = new_sb.groupCount() > 2 ? new_sb.groupCount() - 1 : 0;
    }

    try {
      for (std::uint32_t group = old_groups; group < new_sb.groupCount(); ++group) {
        const std::uint32_t free_blocks = layoutNewGroup(image, new_sb, group);
        new_sb.free_blocks_count += free_blocks;
        new_sb.inodes_count += new_sb.inodes_per_group;
        new_sb.free_inodes_count += new_sb.inodes_per_group;
        coverPoint("resize.new_group");
      }
    } catch (const IoError& e) {
      return makeError(std::string("resize2fs: ") + e.what());
    }

    if (guarded) new_sb.state = static_cast<std::uint16_t>(new_sb.state | kStateValid);
    new_sb.updateChecksum();
    if (buggy) {
      // The buggy release also forgot to refresh the backup copies.
      image.storeSuperblock(new_sb);
    } else {
      image.storeSuperblockWithBackups(new_sb);
    }
    report.new_blocks = new_sb.blocks_count;
    return report;
  }

  // ---- Shrink. ----
  coverPoint("resize.shrink");
  Superblock new_sb = sb;
  new_sb.blocks_count = o.new_size_blocks;
  const std::uint32_t new_groups = new_sb.groupCount();
  const std::uint32_t old_groups = sb.groupCount();

  // Refuse when any block beyond the new end is still allocated to data.
  for (std::uint32_t group = new_groups; group < old_groups; ++group) {
    const Bitmap bitmap = image.loadBlockBitmap(sb, group);
    const std::uint32_t in_group = sb.blocksInGroup(group);
    const std::uint32_t metadata =
        in_group - image.loadGroupDesc(sb, group).free_blocks_count;
    const std::uint32_t used = bitmap.countSet(in_group);
    if (used > metadata && !o.force) {
      return makeError("resize2fs: blocks in use beyond the new size (group " +
                       std::to_string(group) + ")");
    }
  }

  // Same crash guard as the grow path (fixed behaviour only).
  const bool guarded = o.fix_sparse_super2_accounting;
  if (guarded) {
    Superblock marked = sb;
    marked.state = static_cast<std::uint16_t>(marked.state & ~kStateValid);
    marked.updateChecksum();
    image.storeSuperblock(marked);
    coverPoint("resize.crash_guard");
  }

  std::uint32_t removed_free = 0;
  std::uint32_t removed_inodes = 0;
  std::uint32_t removed_free_inodes = 0;
  for (std::uint32_t group = new_groups; group < old_groups; ++group) {
    const GroupDesc gd = image.loadGroupDesc(sb, group);
    removed_free += gd.free_blocks_count;
    removed_free_inodes += gd.free_inodes_count;
    removed_inodes += sb.inodes_per_group;
  }
  // The (possibly shortened) new last group loses its tail blocks.
  const std::uint32_t last = new_groups - 1;
  const std::uint32_t old_last_blocks = sb.blocksInGroup(last);
  const std::uint32_t new_last_blocks = new_sb.blocksInGroup(last);
  if (new_last_blocks < old_last_blocks) {
    GroupDesc gd = image.loadGroupDesc(sb, last);
    const Bitmap bitmap = image.loadBlockBitmap(sb, last);
    std::uint32_t lost_free = 0;
    for (std::uint32_t b = new_last_blocks; b < old_last_blocks; ++b) {
      if (!bitmap.get(b)) ++lost_free;
    }
    gd.free_blocks_count = static_cast<std::uint16_t>(
        gd.free_blocks_count > lost_free ? gd.free_blocks_count - lost_free : 0);
    image.storeGroupDesc(sb, last, gd);
    removed_free += lost_free;
  }

  new_sb.free_blocks_count =
      new_sb.free_blocks_count > removed_free ? new_sb.free_blocks_count - removed_free : 0;
  new_sb.inodes_count -= removed_inodes;
  new_sb.free_inodes_count = new_sb.free_inodes_count > removed_free_inodes
                                 ? new_sb.free_inodes_count - removed_free_inodes
                                 : 0;
  if (new_sb.hasCompat(kCompatSparseSuper2)) {
    new_sb.backup_bgs[1] = new_sb.groupCount() > 2 ? new_sb.groupCount() - 1 : 0;
    if (new_sb.backup_bgs[0] >= new_sb.groupCount()) new_sb.backup_bgs[0] = 0;
  }
  if (guarded) new_sb.state = static_cast<std::uint16_t>(new_sb.state | kStateValid);
  new_sb.updateChecksum();
  image.storeSuperblockWithBackups(new_sb);
  report.new_blocks = new_sb.blocks_count;
  return report;
}

}  // namespace fsdep::fsim
