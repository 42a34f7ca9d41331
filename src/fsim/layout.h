// On-disk layout of the fsim ext4-like filesystem.
//
// The simulator keeps the real ext4 geometry concepts — a superblock at
// byte offset 1024, block groups with block/inode bitmaps and inode
// tables, sparse_super / sparse_super2 backup placement — while trimming
// everything irrelevant to configuration behaviour (no directories, no
// htree, no journal replay machinery beyond flags).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fsdep::fsim {

inline constexpr std::uint16_t kExt4Magic = 0xEF53;
inline constexpr std::uint32_t kSuperblockOffset = 1024;

inline constexpr std::uint16_t kStateValid = 0x0001;
inline constexpr std::uint16_t kStateError = 0x0002;

// Feature flags (same values as the real ext4 and the analysis corpus).
inline constexpr std::uint32_t kCompatHasJournal = 0x0004;
inline constexpr std::uint32_t kCompatResizeInode = 0x0010;
inline constexpr std::uint32_t kCompatSparseSuper2 = 0x0200;

inline constexpr std::uint32_t kIncompatMetaBg = 0x0010;
inline constexpr std::uint32_t kIncompatExtents = 0x0040;
inline constexpr std::uint32_t kIncompat64Bit = 0x0080;
inline constexpr std::uint32_t kIncompatFlexBg = 0x0200;
inline constexpr std::uint32_t kIncompatInlineData = 0x8000;

inline constexpr std::uint32_t kRoCompatSparseSuper = 0x0001;
inline constexpr std::uint32_t kRoCompatQuota = 0x0100;
inline constexpr std::uint32_t kRoCompatBigalloc = 0x0200;
inline constexpr std::uint32_t kRoCompatMetadataCsum = 0x0400;

/// In-memory superblock; serialized little-endian into the image.
struct Superblock {
  std::uint32_t inodes_count = 0;
  std::uint32_t blocks_count = 0;
  std::uint32_t reserved_blocks_count = 0;
  std::uint32_t free_blocks_count = 0;
  std::uint32_t free_inodes_count = 0;
  std::uint32_t first_data_block = 0;
  std::uint32_t log_block_size = 2;  ///< block size == 1024 << log_block_size
  std::uint32_t blocks_per_group = 0;
  std::uint32_t inodes_per_group = 0;
  std::uint16_t mount_count = 0;
  std::uint16_t max_mount_count = 65535;
  std::uint16_t magic = kExt4Magic;
  std::uint16_t state = kStateValid;
  std::uint32_t rev_level = 1;
  std::uint32_t first_inode = 11;
  std::uint16_t inode_size = 256;
  std::uint32_t feature_compat = 0;
  std::uint32_t feature_incompat = 0;
  std::uint32_t feature_ro_compat = 0;
  char volume_name[16] = {};
  std::uint16_t reserved_gdt_blocks = 0;
  std::uint16_t desc_size = 32;
  std::uint32_t backup_bgs[2] = {0, 0};  ///< sparse_super2 backup groups
  std::uint32_t error_count = 0;
  std::uint32_t journal_start = 0;   ///< first block of the journal area
  std::uint32_t journal_blocks = 0;  ///< journal length (0 = no journal)
  std::uint16_t journal_dirty = 0;   ///< nonzero: replay needed before use
  std::uint32_t checksum = 0;  ///< simple additive checksum of the above

  [[nodiscard]] std::uint32_t blockSize() const { return 1024u << log_block_size; }
  [[nodiscard]] bool hasCompat(std::uint32_t mask) const { return (feature_compat & mask) != 0; }
  [[nodiscard]] bool hasIncompat(std::uint32_t mask) const {
    return (feature_incompat & mask) != 0;
  }
  [[nodiscard]] bool hasRoCompat(std::uint32_t mask) const {
    return (feature_ro_compat & mask) != 0;
  }
  /// Block groups past first_data_block, counted in 64 bits (0 when
  /// blocks_count <= first_data_block).
  [[nodiscard]] std::uint32_t groupCount() const;
  /// Groups a one-block descriptor table can address; mkfs, resize,
  /// mount and fsck refuse a geometry with more.
  [[nodiscard]] std::uint32_t maxGroups() const;
  /// Blocks in group `group` (the last group may be short).
  [[nodiscard]] std::uint32_t blocksInGroup(std::uint32_t group) const;

  /// Recomputes the additive checksum field.
  void updateChecksum();
  [[nodiscard]] std::uint32_t computeChecksum() const;

  /// Fixed serialized footprint (independent of block size).
  static constexpr std::size_t kDiskSize = 128;
  void serialize(std::uint8_t* out) const;
  static Superblock deserialize(const std::uint8_t* in);
};

/// Per-group descriptor.
struct GroupDesc {
  std::uint32_t block_bitmap = 0;   ///< block number of the block bitmap
  std::uint32_t inode_bitmap = 0;
  std::uint32_t inode_table = 0;
  std::uint16_t free_blocks_count = 0;
  std::uint16_t free_inodes_count = 0;
  std::uint16_t flags = 0;

  static constexpr std::size_t kDiskSize = 32;
  void serialize(std::uint8_t* out) const;
  static GroupDesc deserialize(const std::uint8_t* in);
};

/// True when `group` holds a superblock backup under sparse_super rules
/// (group 0, 1 and powers of 3, 5, 7).
bool isSparseBackupGroup(std::uint32_t group);

/// Backup groups for the given superblock (sparse_super, sparse_super2 or
/// every group for neither).
std::vector<std::uint32_t> backupGroups(const Superblock& sb);

/// A simple inode: a size plus extent list (start block, length).
struct Extent {
  std::uint32_t start = 0;
  std::uint32_t length = 0;
};

struct Inode {
  std::uint32_t size_bytes = 0;
  std::uint16_t links = 0;  ///< 0 = free
  std::vector<Extent> extents;

  static constexpr std::size_t kMaxExtents = 12;
  static constexpr std::size_t kDiskSize = 128;  ///< minimum on-disk footprint
  void serialize(std::uint8_t* out) const;
  static Inode deserialize(const std::uint8_t* in);
};

}  // namespace fsdep::fsim
