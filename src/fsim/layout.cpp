#include "fsim/layout.h"

#include <cstring>

namespace fsdep::fsim {

namespace {

void put16(std::uint8_t* out, std::size_t& pos, std::uint16_t v) {
  out[pos++] = static_cast<std::uint8_t>(v & 0xFF);
  out[pos++] = static_cast<std::uint8_t>(v >> 8);
}

void put32(std::uint8_t* out, std::size_t& pos, std::uint32_t v) {
  out[pos++] = static_cast<std::uint8_t>(v & 0xFF);
  out[pos++] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[pos++] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[pos++] = static_cast<std::uint8_t>((v >> 24) & 0xFF);
}

std::uint16_t get16(const std::uint8_t* in, std::size_t& pos) {
  const std::uint16_t v = static_cast<std::uint16_t>(in[pos] | (in[pos + 1] << 8));
  pos += 2;
  return v;
}

std::uint32_t get32(const std::uint8_t* in, std::size_t& pos) {
  const std::uint32_t v = static_cast<std::uint32_t>(in[pos]) |
                          (static_cast<std::uint32_t>(in[pos + 1]) << 8) |
                          (static_cast<std::uint32_t>(in[pos + 2]) << 16) |
                          (static_cast<std::uint32_t>(in[pos + 3]) << 24);
  pos += 4;
  return v;
}

}  // namespace

std::uint32_t Superblock::groupCount() const {
  if (blocks_per_group == 0 || blocks_count <= first_data_block) return 0;
  const std::uint64_t data_blocks = blocks_count - first_data_block;
  return static_cast<std::uint32_t>((data_blocks + blocks_per_group - 1) / blocks_per_group);
}

std::uint32_t Superblock::maxGroups() const {
  // Past 64 KiB blocks (log 6) the shift could exceed 32 bits; such a
  // superblock is corrupt and addresses no groups.
  return log_block_size > 6 ? 0 : blockSize() / GroupDesc::kDiskSize;
}

std::uint32_t Superblock::blocksInGroup(std::uint32_t group) const {
  const std::uint32_t groups = groupCount();
  if (group + 1 < groups) return blocks_per_group;
  if (group + 1 == groups) {
    const std::uint32_t data_blocks = blocks_count - first_data_block;
    const std::uint32_t rem = data_blocks % blocks_per_group;
    return rem == 0 ? blocks_per_group : rem;
  }
  return 0;
}

std::uint32_t Superblock::computeChecksum() const {
  // Additive checksum over the serialized bytes with the checksum field
  // zeroed. Deliberately weak (this is a simulator), but order-sensitive.
  std::uint8_t buf[kDiskSize];
  Superblock copy = *this;
  copy.checksum = 0;
  copy.serialize(buf);
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < kDiskSize; ++i) sum = sum * 31 + buf[i];
  return sum;
}

void Superblock::updateChecksum() { checksum = computeChecksum(); }

void Superblock::serialize(std::uint8_t* out) const {
  std::memset(out, 0, kDiskSize);
  std::size_t pos = 0;
  put32(out, pos, inodes_count);
  put32(out, pos, blocks_count);
  put32(out, pos, reserved_blocks_count);
  put32(out, pos, free_blocks_count);
  put32(out, pos, free_inodes_count);
  put32(out, pos, first_data_block);
  put32(out, pos, log_block_size);
  put32(out, pos, blocks_per_group);
  put32(out, pos, inodes_per_group);
  put16(out, pos, mount_count);
  put16(out, pos, max_mount_count);
  put16(out, pos, magic);
  put16(out, pos, state);
  put32(out, pos, rev_level);
  put32(out, pos, first_inode);
  put16(out, pos, inode_size);
  put32(out, pos, feature_compat);
  put32(out, pos, feature_incompat);
  put32(out, pos, feature_ro_compat);
  std::memcpy(out + pos, volume_name, sizeof(volume_name));
  pos += sizeof(volume_name);
  put16(out, pos, reserved_gdt_blocks);
  put16(out, pos, desc_size);
  put32(out, pos, backup_bgs[0]);
  put32(out, pos, backup_bgs[1]);
  put32(out, pos, error_count);
  put32(out, pos, journal_start);
  put32(out, pos, journal_blocks);
  put16(out, pos, journal_dirty);
  put32(out, pos, checksum);
}

Superblock Superblock::deserialize(const std::uint8_t* in) {
  Superblock sb;
  std::size_t pos = 0;
  sb.inodes_count = get32(in, pos);
  sb.blocks_count = get32(in, pos);
  sb.reserved_blocks_count = get32(in, pos);
  sb.free_blocks_count = get32(in, pos);
  sb.free_inodes_count = get32(in, pos);
  sb.first_data_block = get32(in, pos);
  sb.log_block_size = get32(in, pos);
  sb.blocks_per_group = get32(in, pos);
  sb.inodes_per_group = get32(in, pos);
  sb.mount_count = get16(in, pos);
  sb.max_mount_count = get16(in, pos);
  sb.magic = get16(in, pos);
  sb.state = get16(in, pos);
  sb.rev_level = get32(in, pos);
  sb.first_inode = get32(in, pos);
  sb.inode_size = get16(in, pos);
  sb.feature_compat = get32(in, pos);
  sb.feature_incompat = get32(in, pos);
  sb.feature_ro_compat = get32(in, pos);
  std::memcpy(sb.volume_name, in + pos, sizeof(sb.volume_name));
  pos += sizeof(sb.volume_name);
  sb.reserved_gdt_blocks = get16(in, pos);
  sb.desc_size = get16(in, pos);
  sb.backup_bgs[0] = get32(in, pos);
  sb.backup_bgs[1] = get32(in, pos);
  sb.error_count = get32(in, pos);
  sb.journal_start = get32(in, pos);
  sb.journal_blocks = get32(in, pos);
  sb.journal_dirty = get16(in, pos);
  sb.checksum = get32(in, pos);
  return sb;
}

void GroupDesc::serialize(std::uint8_t* out) const {
  std::memset(out, 0, kDiskSize);
  std::size_t pos = 0;
  put32(out, pos, block_bitmap);
  put32(out, pos, inode_bitmap);
  put32(out, pos, inode_table);
  put16(out, pos, free_blocks_count);
  put16(out, pos, free_inodes_count);
  put16(out, pos, flags);
}

GroupDesc GroupDesc::deserialize(const std::uint8_t* in) {
  GroupDesc gd;
  std::size_t pos = 0;
  gd.block_bitmap = get32(in, pos);
  gd.inode_bitmap = get32(in, pos);
  gd.inode_table = get32(in, pos);
  gd.free_blocks_count = get16(in, pos);
  gd.free_inodes_count = get16(in, pos);
  gd.flags = get16(in, pos);
  return gd;
}

bool isSparseBackupGroup(std::uint32_t group) {
  if (group == 0 || group == 1) return true;
  for (const std::uint32_t base : {3u, 5u, 7u}) {
    std::uint64_t power = base;
    while (power < group) power *= base;
    if (power == group) return true;
  }
  return false;
}

std::vector<std::uint32_t> backupGroups(const Superblock& sb) {
  std::vector<std::uint32_t> out;
  const std::uint32_t groups = sb.groupCount();
  if (sb.hasCompat(kCompatSparseSuper2)) {
    for (const std::uint32_t g : sb.backup_bgs) {
      if (g != 0 && g < groups) out.push_back(g);
    }
    return out;
  }
  if (sb.hasRoCompat(kRoCompatSparseSuper)) {
    for (std::uint32_t g = 1; g < groups; ++g) {
      if (isSparseBackupGroup(g)) out.push_back(g);
    }
    return out;
  }
  for (std::uint32_t g = 1; g < groups; ++g) out.push_back(g);
  return out;
}

void Inode::serialize(std::uint8_t* out) const {
  std::memset(out, 0, kDiskSize);
  std::size_t pos = 0;
  put32(out, pos, size_bytes);
  put16(out, pos, links);
  put16(out, pos, static_cast<std::uint16_t>(extents.size()));
  for (std::size_t i = 0; i < extents.size() && i < kMaxExtents; ++i) {
    put32(out, pos, extents[i].start);
    put32(out, pos, extents[i].length);
  }
}

Inode Inode::deserialize(const std::uint8_t* in) {
  Inode inode;
  std::size_t pos = 0;
  inode.size_bytes = get32(in, pos);
  inode.links = get16(in, pos);
  const std::uint16_t extent_count = get16(in, pos);
  for (std::uint16_t i = 0; i < extent_count && i < kMaxExtents; ++i) {
    Extent e;
    e.start = get32(in, pos);
    e.length = get32(in, pos);
    inode.extents.push_back(e);
  }
  return inode;
}

}  // namespace fsdep::fsim
