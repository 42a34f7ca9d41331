#include "fsim/fsck.h"

#include "fsim/coverage.h"
#include "fsim/mount.h"

namespace fsdep::fsim {

int FsckReport::corruptionCount() const {
  int n = 0;
  for (const FsckProblem& p : problems) n += p.severity == ProblemSeverity::Corruption ? 1 : 0;
  return n;
}

std::string FsckReport::summary() const {
  if (clean_skip) return "clean (skipped, use force to check)";
  if (problems.empty()) return "clean";
  std::string out = std::to_string(problems.size()) + " problem(s)";
  const int corruptions = corruptionCount();
  if (corruptions > 0) out += ", " + std::to_string(corruptions) + " corruption(s)";
  return out;
}

Result<FsckReport> FsckTool::check(BlockDevice& device, const FsckOptions& options) {
  try {
    return checkImpl(device, options);
  } catch (const IoError& e) {
    return makeError(std::string("fsck: I/O error: ") + e.what());
  }
}

namespace {

Error geometryError(const Superblock& sb) {
  return makeError("fsck: superblock geometry out of range (" + std::to_string(sb.blocks_count) +
                   " blocks)");
}

}  // namespace

Result<FsckReport> FsckTool::checkImpl(BlockDevice& device, const FsckOptions& options) {
  FsImage image(device);
  Superblock sb = image.loadSuperblock();
  if (options.backup_group != 0) {
    // The backup's offset is a group start in the primary's blocks: a
    // primary block size that shifts past 32 bits locates nothing.
    if (sb.log_block_size > 6) return geometryError(sb);
    sb = image.loadBackupSuperblock(options.backup_group);
    coverPoint("fsck.backup_superblock");
  }

  FsckReport report;
  auto note = [&](ProblemSeverity severity, std::string description) {
    report.problems.push_back(FsckProblem{severity, std::move(description), false});
  };

  if (sb.magic != kExt4Magic) {
    note(ProblemSeverity::Corruption, "bad magic in superblock");
    return report;  // nothing else is trustworthy
  }
  // Every group read trusts the geometry: refuse one without groups or
  // with more than the descriptor table holds. The extent cross-check
  // and every inode load divide by the per-group counts.
  if (sb.blocks_count <= sb.first_data_block || sb.groupCount() > sb.maxGroups() ||
      sb.blocks_per_group == 0 || sb.inodes_per_group == 0) {
    return geometryError(sb);
  }

  if ((sb.state & kStateValid) != 0 && !options.force && !options.repair) {
    report.clean_skip = true;
    coverPoint("fsck.clean_skip");
    return report;
  }
  coverPoint("fsck.full_check");

  // --- Superblock domain checks (the same persistent-field SDs). ---
  for (const std::string& p : MountTool::validateSuperblock(sb)) {
    note(ProblemSeverity::Inconsistency, "superblock: " + p);
  }
  if (sb.checksum != sb.computeChecksum()) {
    note(ProblemSeverity::Inconsistency, "superblock checksum mismatch");
  }
  if ((sb.state & kStateValid) == 0) {
    note(ProblemSeverity::Inconsistency,
         "filesystem was not cleanly shut down (crash or in-progress operation)");
    coverPoint("fsck.unclean_state");
  }
  if (sb.journal_blocks != 0 && sb.journal_dirty != 0) {
    note(ProblemSeverity::Inconsistency, "journal needs recovery (unclean shutdown)");
    coverPoint("fsck.journal_recovery_needed");
  }

  // --- Feature sanity. ---
  if (sb.hasCompat(kCompatSparseSuper2) && sb.hasCompat(kCompatResizeInode)) {
    note(ProblemSeverity::Inconsistency, "sparse_super2 together with resize_inode");
  }
  if (sb.hasRoCompat(kRoCompatBigalloc) && !sb.hasIncompat(kIncompatExtents)) {
    note(ProblemSeverity::Inconsistency, "bigalloc without extents");
  }
  if (sb.hasCompat(kCompatSparseSuper2)) {
    coverPoint("fsck.sparse_super2_fs");
    for (const std::uint32_t g : sb.backup_bgs) {
      if (g != 0 && g >= sb.groupCount()) {
        note(ProblemSeverity::Corruption,
             "sparse_super2 backup group " + std::to_string(g) + " beyond last group");
      }
    }
  }

  // --- Per-group bitmap vs. descriptor accounting. ---
  const std::uint32_t groups = sb.groupCount();
  std::uint64_t free_blocks_from_bitmaps = 0;
  std::uint64_t free_inodes_from_bitmaps = 0;
  for (std::uint32_t group = 0; group < groups; ++group) {
    try {
      const GroupDesc gd = image.loadGroupDesc(sb, group);
      const Bitmap block_bitmap = image.loadBlockBitmap(sb, group);
      const std::uint32_t in_group = sb.blocksInGroup(group);
      const std::uint32_t used = block_bitmap.countSet(in_group);
      const std::uint32_t free_bits = in_group - used;
      if (free_bits != gd.free_blocks_count) {
        note(ProblemSeverity::Corruption,
             "group " + std::to_string(group) + ": descriptor says " +
                 std::to_string(gd.free_blocks_count) + " free blocks, bitmap says " +
                 std::to_string(free_bits));
        coverPoint("fsck.free_count_mismatch");
      }
      free_blocks_from_bitmaps += free_bits;

      const Bitmap inode_bitmap = image.loadInodeBitmap(sb, group);
      const std::uint32_t used_inodes = inode_bitmap.countSet(sb.inodes_per_group);
      const std::uint32_t free_inodes = sb.inodes_per_group - used_inodes;
      if (free_inodes != gd.free_inodes_count) {
        note(ProblemSeverity::Inconsistency,
             "group " + std::to_string(group) + ": inode free count mismatch");
      }
      free_inodes_from_bitmaps += free_inodes;
    } catch (const IoError& e) {
      note(ProblemSeverity::Corruption,
           "group " + std::to_string(group) + ": unreadable metadata: " + e.what());
    }
  }

  if (free_blocks_from_bitmaps != sb.free_blocks_count) {
    note(ProblemSeverity::Corruption,
         "superblock free block count " + std::to_string(sb.free_blocks_count) +
             " does not match bitmaps (" + std::to_string(free_blocks_from_bitmaps) + ")");
    coverPoint("fsck.sb_free_count_mismatch");
  }
  if (free_inodes_from_bitmaps != sb.free_inodes_count) {
    note(ProblemSeverity::Inconsistency, "superblock free inode count mismatch");
  }

  // --- Inode extents vs. block bitmaps (cross check). ---
  for (std::uint32_t ino = sb.first_inode; ino <= sb.inodes_count; ++ino) {
    Inode inode;
    try {
      inode = image.loadInode(sb, ino);
    } catch (const IoError&) {
      continue;
    }
    if (inode.links == 0) continue;
    for (const Extent& e : inode.extents) {
      if (e.start + e.length > sb.blocks_count) {
        note(ProblemSeverity::Corruption,
             "inode " + std::to_string(ino) + " references blocks beyond the filesystem");
        coverPoint("fsck.extent_out_of_range");
        continue;
      }
      for (std::uint32_t b = 0; b < e.length; ++b) {
        const std::uint32_t block = e.start + b;
        const std::uint32_t group = (block - sb.first_data_block) / sb.blocks_per_group;
        const std::uint32_t bit = (block - sb.first_data_block) % sb.blocks_per_group;
        const Bitmap bitmap = image.loadBlockBitmap(sb, group);
        if (!bitmap.get(bit)) {
          note(ProblemSeverity::Corruption,
               "inode " + std::to_string(ino) + " uses block " + std::to_string(block) +
                   " that is free in the bitmap");
        }
      }
    }
  }

  // --- Backup superblock freshness. ---
  for (const std::uint32_t group : backupGroups(sb)) {
    if (group >= groups) continue;
    const Superblock backup = image.loadBackupSuperblock(group);
    if (backup.magic != kExt4Magic) {
      note(ProblemSeverity::Inconsistency,
           "backup superblock in group " + std::to_string(group) + " missing");
    } else if (backup.blocks_count != sb.blocks_count) {
      note(ProblemSeverity::Corruption,
           "backup superblock in group " + std::to_string(group) + " is stale (blocks_count " +
               std::to_string(backup.blocks_count) + " vs " + std::to_string(sb.blocks_count) +
               ")");
      coverPoint("fsck.stale_backup");
    }
  }

  // --- Repair pass. ---
  if (options.repair && !report.problems.empty()) {
    coverPoint("fsck.repair");
    // Recompute all counts from the bitmaps (the source of truth).
    std::uint64_t total_free = 0;
    for (std::uint32_t group = 0; group < groups; ++group) {
      GroupDesc gd = image.loadGroupDesc(sb, group);
      const Bitmap bitmap = image.loadBlockBitmap(sb, group);
      const std::uint32_t in_group = sb.blocksInGroup(group);
      const std::uint32_t free_bits = in_group - bitmap.countSet(in_group);
      gd.free_blocks_count = static_cast<std::uint16_t>(free_bits);
      const Bitmap inode_bitmap = image.loadInodeBitmap(sb, group);
      gd.free_inodes_count = static_cast<std::uint16_t>(
          sb.inodes_per_group - inode_bitmap.countSet(sb.inodes_per_group));
      image.storeGroupDesc(sb, group, gd);
      total_free += free_bits;
    }
    sb.free_blocks_count = static_cast<std::uint32_t>(total_free);
    std::uint64_t free_inodes = 0;
    for (std::uint32_t group = 0; group < groups; ++group) {
      free_inodes += image.loadGroupDesc(sb, group).free_inodes_count;
    }
    sb.free_inodes_count = static_cast<std::uint32_t>(free_inodes);
    sb.state = kStateValid;
    sb.journal_dirty = 0;
    sb.updateChecksum();
    image.storeSuperblockWithBackups(sb);
    for (FsckProblem& p : report.problems) p.fixed = true;
  }

  return report;
}

}  // namespace fsdep::fsim
