#include "fsim/digest.h"

#include <algorithm>
#include <cstdio>

#include "fsim/image.h"
#include "fsim/layout.h"

namespace fsdep::fsim {

namespace {

/// FNV-1a 64-bit, extended with typed mixers so field boundaries are
/// unambiguous (a 0-length string followed by 'x' must not collide with
/// the string "x").
class Fnv64 {
 public:
  void bytes(const std::uint8_t* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  void u8(std::uint8_t v) { bytes(&v, 1); }
  void u32(std::uint32_t v) {
    std::uint8_t buf[4];
    for (int i = 0; i < 4; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes(buf, sizeof(buf));
  }
  void u64(std::uint64_t v) {
    std::uint8_t buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes(buf, sizeof(buf));
  }
  void str(const char* s, std::size_t max) {
    std::size_t n = 0;
    while (n < max && s[n] != '\0') ++n;
    u64(n);
    bytes(reinterpret_cast<const std::uint8_t*>(s), n);
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Raw fallback for devices without a valid filesystem: hash the
/// metadata region (where mkfs writes first) so distinct interrupted
/// states keep distinct digests, without paying for whole-device scans.
void hashRawPrefix(BlockDevice& device, Fnv64& h) {
  h.str("raw", 3);
  const std::uint64_t limit = std::min<std::uint64_t>(device.sizeBytes(), 256 * 1024);
  std::vector<std::uint8_t> buf(device.blockSize());
  for (std::uint64_t offset = 0; offset < limit; offset += buf.size()) {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(buf.size(), limit - offset));
    try {
      device.readBytes(offset, std::span<std::uint8_t>(buf.data(), n));
      h.bytes(buf.data(), n);
    } catch (const IoError&) {
      h.str("unreadable", 10);
      h.u64(offset);
    }
  }
}

void hashSuperblock(const Superblock& sb, Fnv64& h) {
  h.u32(sb.inodes_count);
  h.u32(sb.blocks_count);
  h.u32(sb.reserved_blocks_count);
  h.u32(sb.free_blocks_count);
  h.u32(sb.free_inodes_count);
  h.u32(sb.first_data_block);
  h.u32(sb.log_block_size);
  h.u32(sb.blocks_per_group);
  h.u32(sb.inodes_per_group);
  h.u32(sb.max_mount_count);
  h.u32(sb.state);
  h.u32(sb.rev_level);
  h.u32(sb.first_inode);
  h.u32(sb.inode_size);
  h.u32(sb.feature_compat);
  h.u32(sb.feature_incompat);
  h.u32(sb.feature_ro_compat);
  h.str(sb.volume_name, sizeof(sb.volume_name));
  h.u32(sb.reserved_gdt_blocks);
  h.u32(sb.desc_size);
  h.u32(sb.backup_bgs[0]);
  h.u32(sb.backup_bgs[1]);
  h.u32(sb.journal_start);
  h.u32(sb.journal_blocks);
  h.u32(sb.journal_dirty);
}

}  // namespace

std::uint64_t imageStateDigest(BlockDevice& device) {
  Fnv64 h;
  h.u32(device.blockCount());
  h.u32(device.blockSize());

  FsImage image(device);
  Superblock sb;
  try {
    sb = image.loadSuperblock();
  } catch (const IoError&) {
    hashRawPrefix(device, h);
    return h.value();
  }
  if (sb.magic != kExt4Magic || sb.blocks_count == 0 || sb.blocks_per_group == 0 ||
      sb.inodes_per_group == 0) {
    hashRawPrefix(device, h);
    return h.value();
  }

  hashSuperblock(sb, h);

  // A corrupt count may claim more groups than the descriptor table holds.
  const std::uint32_t groups = std::min(sb.groupCount(), sb.maxGroups());
  for (std::uint32_t group = 0; group < groups; ++group) {
    h.str("group", 5);
    h.u32(group);
    try {
      const GroupDesc gd = image.loadGroupDesc(sb, group);
      h.u32(gd.block_bitmap);
      h.u32(gd.inode_bitmap);
      h.u32(gd.inode_table);
      h.u32(gd.free_blocks_count);
      h.u32(gd.free_inodes_count);
      h.u32(gd.flags);
    } catch (const IoError&) {
      h.str("desc-unreadable", 15);
      continue;
    }

    try {
      const Bitmap blocks = image.loadBlockBitmap(sb, group);
      h.bytes(blocks.bytes().data(), blocks.bytes().size());
    } catch (const IoError&) {
      h.str("bbm-unreadable", 14);
    }

    Bitmap inodes;
    bool inodes_ok = true;
    try {
      inodes = image.loadInodeBitmap(sb, group);
      h.bytes(inodes.bytes().data(), inodes.bytes().size());
    } catch (const IoError&) {
      h.str("ibm-unreadable", 14);
      inodes_ok = false;
    }
    if (!inodes_ok) continue;

    // In-use inodes: number, size, link count and extent map.
    for (std::uint32_t slot = 0; slot < sb.inodes_per_group; ++slot) {
      if (!inodes.get(slot)) continue;
      const std::uint32_t ino = group * sb.inodes_per_group + slot + 1;
      if (ino > sb.inodes_count) break;
      h.str("inode", 5);
      h.u32(ino);
      try {
        const Inode inode = image.loadInode(sb, ino);
        h.u32(inode.size_bytes);
        h.u32(inode.links);
        h.u64(inode.extents.size());
        for (const Extent& e : inode.extents) {
          h.u32(e.start);
          h.u32(e.length);
        }
      } catch (const IoError&) {
        h.str("inode-unreadable", 16);
      }
    }
  }
  return h.value();
}

std::string digestHex(std::uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace fsdep::fsim
