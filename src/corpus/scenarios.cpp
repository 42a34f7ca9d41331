// The four usage scenarios of Tables 3 and 5, with the pre-selected
// functions the intra-procedural prototype analyzes in each (paper §4.1:
// "we can only extract dependencies via a few pre-selected functions").
#include "corpus/corpus.h"

namespace fsdep::corpus {

namespace {

std::map<std::string, std::vector<std::string>> baseSelection() {
  return {
      {"mke2fs", {"mke2fs_main", "mke2fs_write_super"}},
      {"mount", {"mount_main"}},
      {"ext4", {"ext4_parse_options", "ext4_fill_super", "ext4_check_descriptors"}},
  };
}

}  // namespace

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;

  Scenario s1;
  s1.id = "s1";
  s1.title = "mke2fs - mount - Ext4";
  s1.selection = baseSelection();
  s1.selection["ext4"].push_back("ext4_setup_super");
  out.push_back(std::move(s1));

  Scenario s2;
  s2.id = "s2";
  s2.title = "mke2fs - mount - Ext4 - e4defrag";
  s2.selection = baseSelection();
  s2.selection["ext4"].push_back("ext4_online_defrag_check");
  s2.selection["e4defrag"] = {"e4defrag_main"};
  out.push_back(std::move(s2));

  Scenario s3;
  s3.id = "s3";
  s3.title = "mke2fs - mount - Ext4 - umount - resize2fs";
  s3.selection = baseSelection();
  s3.selection["ext4"].push_back("ext4_setup_super");
  s3.selection["ext4"].push_back("ext4_remount");
  s3.selection["ext4"].push_back("ext4_validate_super_offline");
  s3.selection["resize2fs"] = {"resize2fs_main", "resize2fs_check_geometry",
                               "resize2fs_adjust_last_group", "resize2fs_print_summary"};
  out.push_back(std::move(s3));

  Scenario s4;
  s4.id = "s4";
  s4.title = "mke2fs - mount - Ext4 - umount - e2fsck";
  s4.selection = baseSelection();
  s4.selection["ext4"].push_back("ext4_setup_super");
  s4.selection["ext4"].push_back("ext4_remount");
  s4.selection["ext4"].push_back("ext4_validate_super_offline");
  s4.selection["e2fsck"] = {"e2fsck_main", "e2fsck_check_super"};
  out.push_back(std::move(s4));

  return out;
}

Scenario xfsScenario() {
  Scenario s;
  s.id = "xfs";
  s.title = "mkfs.xfs - mount - XFS - xfs_growfs";
  s.selection = {
      {"mkfs_xfs", {"mkfs_xfs_main"}},
      {"xfs", {"xfs_parse_options", "xfs_mount_validate_sb"}},
      {"xfs_growfs", {"xfs_growfs_main"}},
  };
  s.metadata_owner = "xfs";
  return s;
}

Scenario btrfsScenario() {
  Scenario s;
  s.id = "btrfs";
  s.title = "mkfs.btrfs - mount - BtrFS - btrfs-balance";
  s.selection = {
      {"mkfs_btrfs", {"mkfs_btrfs_main"}},
      {"btrfs", {"btrfs_parse_options", "btrfs_validate_super"}},
      {"btrfs_balance", {"btrfs_balance_main"}},
  };
  s.metadata_owner = "btrfs";
  return s;
}

}  // namespace fsdep::corpus
