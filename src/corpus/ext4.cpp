// Ext4's entry in the file-system table: its six components with their
// taint seeds, and the four usage scenarios of Tables 3 and 5.
//
// Seeds are the paper's "manual annotations" (§6) naming the variable
// that carries each configuration parameter inside each pre-selected
// function. Each scenario lists the pre-selected functions the
// intra-procedural prototype analyzes (paper §4.1: "we can only extract
// dependencies via a few pre-selected functions").
#include "corpus/sources_internal.h"

namespace fsdep::corpus {

namespace {

/// An Ext4 scenario: mke2fs, mount and the kernel's option parsing and
/// superblock checks, plus `ext4_more` kernel functions and `more`
/// components.
Scenario ext4Scenario(const char* id, const char* title, std::vector<std::string> ext4_more,
                      std::map<std::string, std::vector<std::string>> more) {
  Scenario s{.id = id, .title = title, .selection = std::move(more)};
  s.selection["mke2fs"] = {"mke2fs_main", "mke2fs_write_super"};
  s.selection["mount"] = {"mount_main"};
  std::vector<std::string>& ext4 = s.selection["ext4"];
  ext4 = {"ext4_parse_options", "ext4_fill_super", "ext4_check_descriptors"};
  ext4.insert(ext4.end(), ext4_more.begin(), ext4_more.end());
  return s;
}

}  // namespace

FileSystem ext4FileSystem() {
  FileSystem fs;
  fs.name = "ext4";
  fs.header = "ext4_fs.h";
  fs.header_source = kExt4FsHeader;
  fs.components = {
      {"mke2fs", kMke2fsSource, false, {
          // mke2fs_main locals.
          {"mke2fs_main", "fs_blocks", "mke2fs.size"},
          {"mke2fs_main", "blocksize", "mke2fs.blocksize"},
          {"mke2fs_main", "inode_size", "mke2fs.inode_size"},
          {"mke2fs_main", "inode_ratio", "mke2fs.inode_ratio"},
          {"mke2fs_main", "reserved_ratio", "mke2fs.reserved_ratio"},
          {"mke2fs_main", "blocks_per_group", "mke2fs.blocks_per_group"},
          {"mke2fs_main", "flex_bg_size", "mke2fs.flex_bg_size"},
          {"mke2fs_main", "revision", "mke2fs.revision"},
          {"mke2fs_main", "cluster_size", "mke2fs.cluster_size"},
          {"mke2fs_main", "resize_limit", "mke2fs.resize_limit"},
          {"mke2fs_main", "volume_label", "mke2fs.label"},
          {"mke2fs_main", "meta_bg", "mke2fs.meta_bg"},
          {"mke2fs_main", "resize_inode", "mke2fs.resize_inode"},
          {"mke2fs_main", "sparse_super2", "mke2fs.sparse_super2"},
          {"mke2fs_main", "bigalloc", "mke2fs.bigalloc"},
          {"mke2fs_main", "extents", "mke2fs.extent"},
          {"mke2fs_main", "has_64bit", "mke2fs.64bit"},
          {"mke2fs_main", "quota", "mke2fs.quota"},
          {"mke2fs_main", "has_journal", "mke2fs.has_journal"},
          {"mke2fs_main", "journal_dev", "mke2fs.journal_dev"},
          {"mke2fs_main", "uninit_bg", "mke2fs.uninit_bg"},
          {"mke2fs_main", "metadata_csum", "mke2fs.metadata_csum"},
          {"mke2fs_main", "flex_bg", "mke2fs.flex_bg"},
          {"mke2fs_main", "inline_data", "mke2fs.inline_data"},
          {"mke2fs_main", "encrypt", "mke2fs.encrypt"},
          // mke2fs_write_super parameters (intra-procedural analysis needs
          // its own annotations for the fill path).
          {"mke2fs_write_super", "fs_blocks", "mke2fs.size"},
          {"mke2fs_write_super", "blocksize", "mke2fs.blocksize"},
          {"mke2fs_write_super", "inode_size", "mke2fs.inode_size"},
          {"mke2fs_write_super", "reserved_ratio", "mke2fs.reserved_ratio"},
          {"mke2fs_write_super", "blocks_per_group", "mke2fs.blocks_per_group"},
          {"mke2fs_write_super", "inode_ratio", "mke2fs.inode_ratio"},
          {"mke2fs_write_super", "revision", "mke2fs.revision"},
          {"mke2fs_write_super", "flex_bg_size", "mke2fs.flex_bg_size"},
          {"mke2fs_write_super", "cluster_size", "mke2fs.cluster_size"},
          {"mke2fs_write_super", "volume_label", "mke2fs.label"},
          {"mke2fs_write_super", "resize_limit", "mke2fs.resize_limit"},
          {"mke2fs_write_super", "meta_bg", "mke2fs.meta_bg"},
          {"mke2fs_write_super", "resize_inode", "mke2fs.resize_inode"},
          {"mke2fs_write_super", "sparse_super2", "mke2fs.sparse_super2"},
          {"mke2fs_write_super", "bigalloc", "mke2fs.bigalloc"},
          {"mke2fs_write_super", "extents", "mke2fs.extent"},
          {"mke2fs_write_super", "has_64bit", "mke2fs.64bit"},
          {"mke2fs_write_super", "quota", "mke2fs.quota"},
          {"mke2fs_write_super", "has_journal", "mke2fs.has_journal"},
          {"mke2fs_write_super", "journal_dev", "mke2fs.journal_dev"},
          {"mke2fs_write_super", "uninit_bg", "mke2fs.uninit_bg"},
          {"mke2fs_write_super", "metadata_csum", "mke2fs.metadata_csum"},
          {"mke2fs_write_super", "flex_bg", "mke2fs.flex_bg"},
          {"mke2fs_write_super", "inline_data", "mke2fs.inline_data"},
          {"mke2fs_write_super", "encrypt", "mke2fs.encrypt"},
      }},
      {"mount", kMountSource, false, {
          {"mount_main", "commit_interval", "mount.commit"},
          {"mount_main", "dax", "mount.dax"},
          {"mount_main", "ro", "mount.ro"},
          {"mount_main", "noload", "mount.noload"},
      }},
      {"ext4", kExt4Source, true, {
          {"ext4_parse_options", "commit_interval", "mount.commit"},
          {"ext4_parse_options", "stripe", "mount.stripe"},
          {"ext4_parse_options", "inode_readahead_blks", "mount.inode_readahead_blks"},
          {"ext4_parse_options", "max_batch_time", "mount.max_batch_time"},
          {"ext4_parse_options", "min_batch_time", "mount.min_batch_time"},
          {"ext4_fill_super", "dax", "mount.dax"},
          {"ext4_fill_super", "data_journal", "mount.data_journal"},
          {"ext4_fill_super", "data_writeback", "mount.data_writeback"},
          {"ext4_fill_super", "noload", "mount.noload"},
          {"ext4_fill_super", "ro", "mount.ro"},
          {"ext4_fill_super", "journal_checksum", "mount.journal_checksum"},
          {"ext4_fill_super", "journal_async_commit", "mount.journal_async_commit"},
          {"ext4_fill_super", "usrjquota", "mount.usrjquota"},
          {"ext4_fill_super", "jqfmt", "mount.jqfmt"},
          {"ext4_fill_super", "dioread_nolock", "mount.dioread_nolock"},
          {"ext4_fill_super", "delalloc", "mount.delalloc"},
          {"ext4_fill_super", "nobh", "mount.nobh"},
          {"ext4_setup_super", "min_batch_time", "mount.min_batch_time"},
          {"ext4_setup_super", "max_batch_time", "mount.max_batch_time"},
          {"ext4_remount", "data_journal", "mount.data_journal"},
          {"ext4_remount", "auto_da_alloc", "mount.auto_da_alloc"},
          {"ext4_online_defrag_check", "data_journal", "mount.data_journal"},
          {"ext4_online_defrag_check", "auto_da_alloc", "mount.auto_da_alloc"},
      }},
      {"e4defrag", kE4defragSource, false, {
          {"e4defrag_main", "stat_only", "e4defrag.stat_only"},
          {"e4defrag_main", "verbose", "e4defrag.verbose"},
      }},
      {"resize2fs", kResize2fsSource, false, {
          {"resize2fs_main", "new_blocks", "resize2fs.size"},
          {"resize2fs_main", "online", "resize2fs.online"},
          {"resize2fs_main", "force", "resize2fs.force"},
          {"resize2fs_main", "minimize", "resize2fs.minimize"},
          {"resize2fs_check_geometry", "new_blocks", "resize2fs.size"},
          {"resize2fs_check_geometry", "online", "resize2fs.online"},
          {"resize2fs_check_geometry", "force", "resize2fs.force"},
      }},
      {"e2fsck", kE2fsckSource, false, {
          {"e2fsck_main", "force", "e2fsck.force"},
          {"e2fsck_main", "preen", "e2fsck.preen"},
          {"e2fsck_main", "yes_mode", "e2fsck.yes"},
          {"e2fsck_main", "no_mode", "e2fsck.no"},
          {"e2fsck_main", "backup_super", "e2fsck.backup_super"},
          {"e2fsck_main", "io_blocksize", "e2fsck.blocksize"},
      }},
  };
  const std::vector<std::string> offline = {"ext4_setup_super", "ext4_remount",
                                            "ext4_validate_super_offline"};
  fs.scenarios = {
      ext4Scenario("s1", "mke2fs - mount - Ext4", {"ext4_setup_super"}, {}),
      ext4Scenario("s2", "mke2fs - mount - Ext4 - e4defrag", {"ext4_online_defrag_check"},
                   {{"e4defrag", {"e4defrag_main"}}}),
      ext4Scenario("s3", "mke2fs - mount - Ext4 - umount - resize2fs", offline,
                   {{"resize2fs",
                     {"resize2fs_main", "resize2fs_check_geometry", "resize2fs_adjust_last_group",
                      "resize2fs_print_summary"}}}),
      ext4Scenario("s4", "mke2fs - mount - Ext4 - umount - e2fsck", offline,
                   {{"e2fsck", {"e2fsck_main", "e2fsck_check_super"}}}),
  };
  return fs;
}

}  // namespace fsdep::corpus
