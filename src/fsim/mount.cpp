#include "fsim/mount.h"

#include <algorithm>

#include "fsim/coverage.h"

namespace fsdep::fsim {

std::vector<std::string> MountTool::validateSuperblock(const Superblock& sb) {
  std::vector<std::string> problems;
  if (sb.magic != kExt4Magic) problems.push_back("bad magic number");
  if (sb.log_block_size > 6) problems.push_back("s_log_block_size out of range");
  if (sb.inode_size < 128 || sb.inode_size > 4096) {
    problems.push_back("s_inode_size out of range");
  }
  if (sb.rev_level > 1) problems.push_back("unsupported revision level");
  if (sb.first_inode < 11) problems.push_back("s_first_ino below reserved range");
  if (sb.desc_size < 32 || sb.desc_size > 64) problems.push_back("bad descriptor size");
  if (sb.first_data_block > 1) problems.push_back("bad first data block");
  if (sb.inodes_per_group < 8 || sb.inodes_per_group > 65536) {
    problems.push_back("s_inodes_per_group out of range");
  }
  if (sb.blocks_per_group == 0 || sb.blocks_per_group > 8 * sb.blockSize()) {
    problems.push_back("s_blocks_per_group out of range");
  }
  if (sb.blocks_count < sb.first_data_block + 8) {
    problems.push_back("block count too small for the layout");
  }
  if (sb.groupCount() > sb.maxGroups()) {
    problems.push_back("too many block groups for a one-block descriptor table");
  }
  return problems;
}

std::vector<std::string> MountTool::validateOptions(const MountOptions& o, const Superblock& sb) {
  std::vector<std::string> problems;
  if (o.dax && o.data_mode == DataMode::Journal) {
    problems.push_back("mount.dax excludes mount.data_journal");
  }
  if (o.noload && !o.read_only) {
    problems.push_back("mount.noload requires mount.ro");
  }
  if (o.journal_async_commit && !o.journal_checksum) {
    problems.push_back("mount.journal_async_commit requires mount.journal_checksum");
  }
  if (o.dioread_nolock && o.data_mode == DataMode::Journal) {
    problems.push_back("mount.dioread_nolock excludes mount.data_journal");
  }
  if (o.delalloc && o.data_mode == DataMode::Journal) {
    problems.push_back("mount.delalloc excludes mount.data_journal");
  }
  if (o.auto_da_alloc && o.data_mode == DataMode::Journal) {
    problems.push_back("mount.auto_da_alloc excludes mount.data_journal");
  }
  if (o.commit_interval < 1 || o.commit_interval > 300) {
    problems.push_back("mount.commit out of range [1, 300]");
  }
  if (o.stripe > 2097152) problems.push_back("mount.stripe out of range");
  if (o.inode_readahead_blks > 1073741824 ||
      (o.inode_readahead_blks & (o.inode_readahead_blks - 1)) != 0) {
    problems.push_back("mount.inode_readahead_blks must be a power of two <= 2^30");
  }
  if (o.max_batch_time > 60000) problems.push_back("mount.max_batch_time out of range");
  if (o.min_batch_time > o.max_batch_time) {
    problems.push_back("mount.min_batch_time must be <= mount.max_batch_time");
  }
  if (o.dax && sb.blockSize() != 4096) {
    problems.push_back("mount.dax requires a 4KiB block size");
  }
  if (o.dax && sb.hasIncompat(kIncompatInlineData)) {
    problems.push_back("mount.dax excludes mke2fs.inline_data");
  }
  return problems;
}

Result<MountedFs> MountTool::mount(BlockDevice& device, const MountOptions& options) {
  try {
    return mountImpl(device, options);
  } catch (const IoError& e) {
    // Faulted device mid-mount (including journal replay): surface a
    // structured error instead of unwinding into the caller.
    return makeError(std::string("mount: I/O error: ") + e.what());
  }
}

Result<MountedFs> MountTool::mountImpl(BlockDevice& device, const MountOptions& options) {
  FsImage image(device);
  Superblock sb = image.loadSuperblock();

  std::vector<std::string> problems = validateSuperblock(sb);
  if (problems.empty()) {
    const std::vector<std::string> option_problems = validateOptions(options, sb);
    problems.insert(problems.end(), option_problems.begin(), option_problems.end());
  }
  if (!problems.empty()) {
    std::string message = "mount: refused:";
    for (const std::string& p : problems) message += "\n  " + p;
    return makeError(message);
  }

  coverPoint("mount.ok");
  if (options.dax) coverPoint("mount.dax_path");
  if (options.data_mode == DataMode::Journal) coverPoint("mount.data_journal");
  if (options.data_mode == DataMode::Writeback) coverPoint("mount.data_writeback");
  if (options.noload) coverPoint("mount.noload");
  if (sb.hasCompat(kCompatSparseSuper2)) coverPoint("mount.sparse_super2_fs");
  if (sb.hasRoCompat(kRoCompatBigalloc)) coverPoint("mount.bigalloc_fs");
  if (sb.hasIncompat(kIncompat64Bit)) coverPoint("mount.64bit_fs");
  if (sb.hasIncompat(kIncompatMetaBg)) coverPoint("mount.meta_bg_fs");
  if (sb.hasRoCompat(kRoCompatQuota)) coverPoint("mount.quota_fs");
  if (sb.hasIncompat(kIncompatInlineData)) coverPoint("mount.inline_data_fs");
  if (sb.hasRoCompat(kRoCompatMetadataCsum)) coverPoint("mount.metadata_csum_fs");

  // Journal recovery: a dirty journal is replayed before use — counts
  // are rebuilt from the bitmaps (the journal's committed truth in this
  // simulator) — unless noload skips recovery on a read-only mount.
  if (sb.journal_blocks != 0 && sb.journal_dirty != 0) {
    if (options.noload) {
      coverPoint("mount.noload_skip_recovery");
    } else {
      coverPoint("mount.journal_replay");
      std::uint64_t total_free = 0;
      std::uint64_t free_inodes = 0;
      for (std::uint32_t group = 0; group < sb.groupCount(); ++group) {
        GroupDesc gd = image.loadGroupDesc(sb, group);
        const Bitmap block_bitmap = image.loadBlockBitmap(sb, group);
        const std::uint32_t in_group = sb.blocksInGroup(group);
        gd.free_blocks_count =
            static_cast<std::uint16_t>(in_group - block_bitmap.countSet(in_group));
        const Bitmap inode_bitmap = image.loadInodeBitmap(sb, group);
        gd.free_inodes_count = static_cast<std::uint16_t>(
            sb.inodes_per_group - inode_bitmap.countSet(sb.inodes_per_group));
        image.storeGroupDesc(sb, group, gd);
        total_free += gd.free_blocks_count;
        free_inodes += gd.free_inodes_count;
      }
      sb.free_blocks_count = static_cast<std::uint32_t>(total_free);
      sb.free_inodes_count = static_cast<std::uint32_t>(free_inodes);
      sb.journal_dirty = 0;
      sb.state = kStateValid;
      sb.updateChecksum();
      image.storeSuperblock(sb);
    }
  }

  if (!options.read_only) {
    ++sb.mount_count;
    if (sb.journal_blocks != 0) sb.journal_dirty = 1;  // in-flight transactions
    sb.updateChecksum();
    image.storeSuperblock(sb);
  }
  return MountedFs(device, sb, options);
}

MountedFs::MountedFs(BlockDevice& device, Superblock sb, MountOptions options)
    : device_(device), image_(device), sb_(sb), options_(options) {}

Result<std::uint32_t> MountedFs::createFile(std::uint32_t size_bytes,
                                            std::uint32_t max_extent_blocks) {
  if (!mounted_) return makeError("filesystem is not mounted");
  if (options_.read_only) return makeError("read-only mount");
  std::uint32_t ino = 0;
  try {
    ino = image_.allocateInode(sb_);
  } catch (const IoError& e) {
    return makeError(e.what());
  }
  if (ino == 0) return makeError("out of inodes");

  const std::uint32_t bs = sb_.blockSize();
  std::uint32_t blocks = (size_bytes + bs - 1) / bs;
  Inode inode;
  inode.size_bytes = size_bytes;
  inode.links = 1;
  try {
    while (blocks > 0) {
      const std::uint32_t chunk =
          max_extent_blocks == 0 ? blocks : std::min(blocks, max_extent_blocks);
      std::vector<Extent> extents = image_.allocateBlocks(sb_, chunk);
      for (const Extent& e : extents) {
        if (inode.extents.size() >= Inode::kMaxExtents) {
          image_.freeExtents(sb_, {e});
          continue;
        }
        inode.extents.push_back(e);
      }
      blocks -= chunk;
    }
    image_.storeInode(sb_, ino, inode);
  } catch (const IoError& e) {
    // Best-effort rollback; a device frozen by a crash fault rejects
    // even the cleanup writes, and that must not unwind either — the
    // journal replay at the next mount owns the mess.
    try {
      image_.freeExtents(sb_, inode.extents);
      image_.freeInode(sb_, ino);
    } catch (const IoError&) {
      coverPoint("file.create_rollback_failed");
    }
    return makeError(e.what());
  }
  coverPoint("file.create");
  if (inode.extents.size() > 1) coverPoint("file.fragmented");
  return ino;
}

Result<bool> MountedFs::removeFile(std::uint32_t ino) {
  if (!mounted_) return makeError("filesystem is not mounted");
  if (options_.read_only) return makeError("read-only mount");
  try {
    Inode inode = image_.loadInode(sb_, ino);
    if (inode.links == 0) return makeError("inode not in use");
    image_.freeExtents(sb_, inode.extents);
    inode = Inode{};
    image_.storeInode(sb_, ino, inode);
    image_.freeInode(sb_, ino);
  } catch (const IoError& e) {
    return makeError(e.what());
  }
  coverPoint("file.remove");
  return true;
}

std::optional<Inode> MountedFs::statFile(std::uint32_t ino) const {
  if (ino == 0 || ino > sb_.inodes_count) return std::nullopt;
  try {
    Inode inode = image_.loadInode(sb_, ino);
    if (inode.links == 0) return std::nullopt;
    return inode;
  } catch (const IoError&) {
    return std::nullopt;
  }
}

void MountedFs::unmount() {
  if (!mounted_) return;
  mounted_ = false;
  if (!options_.read_only) {
    try {
      sb_ = image_.loadSuperblock();
      sb_.state = kStateValid;
      sb_.journal_dirty = 0;
      sb_.updateChecksum();
      image_.storeSuperblockWithBackups(sb_);
    } catch (const IoError&) {
      // Device died under us: the clean-unmount write never lands, so
      // the journal stays dirty and the next mount replays. Exactly the
      // semantics of yanking a disk during umount.
      coverPoint("umount.io_error");
      return;
    }
  }
  coverPoint("umount.ok");
}

void MountedFs::crash() {
  if (!mounted_) return;
  mounted_ = false;
  if (options_.read_only) return;
  try {
    Superblock sb = image_.loadSuperblock();
    if (sb.journal_blocks != 0 && sb.journal_dirty == 0) {
      // In-flight transactions were pending: the dirty bit must survive
      // on the medium, whatever intermediate writes said.
      sb.journal_dirty = 1;
      sb.updateChecksum();
      image_.storeSuperblock(sb);
    }
  } catch (const IoError&) {
    // A device frozen by the crash itself cannot be written; the bit
    // set at mount time (if any) is whatever made it to the medium.
  }
  coverPoint("mount.crash");
}

}  // namespace fsdep::fsim
