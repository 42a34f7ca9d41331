// FsImage: structured access to an fsim filesystem inside a BlockDevice —
// superblock (primary + backups), group descriptors, bitmaps, inode
// table, and a first-fit block allocator. All utilities (mkfs, mount,
// resize2fs, fsck, defrag) operate through this class, mirroring how the
// real ecosystem shares the on-disk metadata (the paper's bridge).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsim/block_device.h"
#include "fsim/layout.h"

namespace fsdep::fsim {

/// A block or inode bitmap held in memory.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::uint32_t bit_count) : bits_((bit_count + 7) / 8, 0), count_(bit_count) {}
  static Bitmap fromBytes(std::vector<std::uint8_t> bytes, std::uint32_t bit_count);

  [[nodiscard]] bool get(std::uint32_t bit) const;
  void set(std::uint32_t bit, bool value);
  [[nodiscard]] std::uint32_t countSet(std::uint32_t limit) const;
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bits_; }

 private:
  std::vector<std::uint8_t> bits_;
  std::uint32_t count_ = 0;
};

class FsImage {
 public:
  explicit FsImage(BlockDevice& device) : device_(device) {}

  [[nodiscard]] BlockDevice& device() { return device_; }
  [[nodiscard]] const BlockDevice& device() const { return device_; }

  // --- Superblock ----------------------------------------------------
  [[nodiscard]] Superblock loadSuperblock() const;
  void storeSuperblock(const Superblock& sb);
  /// Also refreshes the backup copies mandated by the feature flags.
  void storeSuperblockWithBackups(const Superblock& sb);
  /// Loads the backup copy in `group` (for fsck -b style recovery).
  [[nodiscard]] Superblock loadBackupSuperblock(std::uint32_t group) const;

  // --- Geometry helpers ------------------------------------------------
  /// Absolute first block of a group.
  [[nodiscard]] static std::uint32_t groupFirstBlock(const Superblock& sb, std::uint32_t group);
  /// Number of blocks a group's metadata occupies (sb copy, descriptors,
  /// bitmaps, inode table).
  [[nodiscard]] static std::uint32_t groupMetadataBlocks(const Superblock& sb,
                                                         std::uint32_t group);
  /// Blocks the inode table needs per group.
  [[nodiscard]] static std::uint32_t inodeTableBlocks(const Superblock& sb);
  /// Block number of the group-descriptor table (held in group 0).
  [[nodiscard]] static std::uint32_t descTableBlock(const Superblock& sb);

  // --- Group descriptors ----------------------------------------------
  [[nodiscard]] GroupDesc loadGroupDesc(const Superblock& sb, std::uint32_t group) const;
  void storeGroupDesc(const Superblock& sb, std::uint32_t group, const GroupDesc& gd);

  // --- Bitmaps ----------------------------------------------------------
  [[nodiscard]] Bitmap loadBlockBitmap(const Superblock& sb, std::uint32_t group) const;
  void storeBlockBitmap(const Superblock& sb, std::uint32_t group, const Bitmap& bitmap);
  [[nodiscard]] Bitmap loadInodeBitmap(const Superblock& sb, std::uint32_t group) const;
  void storeInodeBitmap(const Superblock& sb, std::uint32_t group, const Bitmap& bitmap);

  // --- Inodes -----------------------------------------------------------
  [[nodiscard]] Inode loadInode(const Superblock& sb, std::uint32_t ino) const;
  void storeInode(const Superblock& sb, std::uint32_t ino, const Inode& inode);

  // --- Allocation --------------------------------------------------------
  /// Allocates `count` blocks; returns the extents found (first-fit,
  /// possibly fragmented). Updates bitmaps, group descriptors and the
  /// superblock free count. Throws IoError when space runs out.
  std::vector<Extent> allocateBlocks(Superblock& sb, std::uint32_t count);
  void freeExtents(Superblock& sb, const std::vector<Extent>& extents);
  /// Allocates a free inode number; returns 0 when full.
  std::uint32_t allocateInode(Superblock& sb);
  void freeInode(Superblock& sb, std::uint32_t ino);

 private:
  BlockDevice& device_;
};

}  // namespace fsdep::fsim
