// The BtrFS mini-ecosystem — the second §6 target ("XFS, BtrFS"). Three
// components share struct btrfs_sb: mkfs.btrfs (create), the kernel mount
// path (mount), and btrfs-balance (online restriping). The notable CCDs:
// the mount-time max_inline option is bounded by the creation-time node
// size, and balance's raid conversion depends on the device count chosen
// at mkfs time.
#include "corpus/sources_internal.h"

namespace fsdep::corpus {

const char* const kBtrfsFsHeader = R"CORPUS(
#ifndef BTRFS_FS_H
#define BTRFS_FS_H

typedef unsigned char  u8;
typedef unsigned short u16;
typedef unsigned int   u32;
typedef unsigned long  u64;

#define BTRFS_SB_MAGIC 1817327701
#define BTRFS_MIN_NODESIZE 4096
#define BTRFS_MAX_NODESIZE 65536

enum btrfs_features {
  BTRFS_FEAT_MIXED_BG   = 0x0001,
  BTRFS_FEAT_EXTREF     = 0x0002,
  BTRFS_FEAT_RAID56     = 0x0004,
  BTRFS_FEAT_SKINNY     = 0x0008,
  BTRFS_FEAT_NO_HOLES   = 0x0010
};

enum btrfs_raid_profile {
  BTRFS_RAID_SINGLE = 0,
  BTRFS_RAID_DUP    = 1,
  BTRFS_RAID_RAID0  = 2,
  BTRFS_RAID_RAID1  = 3,
  BTRFS_RAID_RAID5  = 4
};

struct btrfs_sb {
  u32 sb_magicnum;
  u32 sb_sectorsize;
  u32 sb_nodesize;
  u32 sb_num_devices;
  u32 sb_total_bytes;
  u32 sb_data_profile;
  u32 sb_meta_profile;
  u32 sb_features;
};

#endif
)CORPUS";

const char* const kMkfsBtrfsSource = R"CORPUS(
#include "fsdep_libc.h"
#include "btrfs_fs.h"

/*
 * mkfs.btrfs: option parsing, validation, superblock fill.
 */
int mkfs_btrfs_main(int argc, char **argv, struct btrfs_sb *sb) {
  long sectorsize = 4096;
  long nodesize = 16384;
  long num_devices = 1;
  long total_bytes = 0;
  long data_profile = BTRFS_RAID_SINGLE;
  long meta_profile = BTRFS_RAID_DUP;
  int mixed_bg = 0;
  int raid56 = 0;
  int no_holes = 0;
  int c = 0;

  while ((c = getopt(argc, argv, "s:n:d:m:M:")) != -1) {
    switch (c) {
      case 's':
        sectorsize = parse_num(optarg);
        break;
      case 'n':
        nodesize = parse_num(optarg);
        break;
      case 'd':
        data_profile = strtol(optarg, 0, 10);
        break;
      case 'm':
        meta_profile = strtol(optarg, 0, 10);
        break;
      case 'M':
        mixed_bg = 1;
        break;
      default:
        usage();
        break;
    }
  }

  num_devices = strtol(argv[optind], 0, 10);
  total_bytes = strtol(argv[optind + 1], 0, 10);

  /* ---- Self dependencies. ---- */
  if (sectorsize < 4096 || sectorsize > 65536) {
    usage();
  }
  if (nodesize < BTRFS_MIN_NODESIZE || nodesize > BTRFS_MAX_NODESIZE) {
    usage();
  }
  if (nodesize & (nodesize - 1)) {
    usage();
  }
  if (num_devices < 1 || num_devices > 1024) {
    usage();
  }

  /* ---- Cross-parameter dependencies. ---- */
  if (nodesize < sectorsize) {
    fatal_error("node size cannot be smaller than the sector size");
  }
  if (mixed_bg && nodesize != sectorsize) {
    fatal_error("mixed block groups require nodesize == sectorsize");
  }
  if (data_profile == BTRFS_RAID_RAID1 && num_devices < 2) {
    fatal_error("raid1 data needs at least two devices");
  }
  if (data_profile == BTRFS_RAID_RAID5 && num_devices < 3) {
    fatal_error("raid5 data needs at least three devices");
  }
  if (raid56 && !no_holes) {
    /* historical: raid56 shipped gated on other incompat bits */
    fatal_error("raid56 requires the no_holes format");
  }

  /* ---- Persist (the CCD bridge writes). ---- */
  sb->sb_magicnum = BTRFS_SB_MAGIC;
  sb->sb_sectorsize = sectorsize;
  sb->sb_nodesize = nodesize;
  sb->sb_num_devices = num_devices;
  sb->sb_total_bytes = total_bytes;
  sb->sb_data_profile = data_profile;
  sb->sb_meta_profile = meta_profile;
  sb->sb_features |= (mixed_bg ? BTRFS_FEAT_MIXED_BG : 0);
  sb->sb_features |= (raid56 ? BTRFS_FEAT_RAID56 : 0);
  sb->sb_features |= (no_holes ? BTRFS_FEAT_NO_HOLES : 0);
  return 0;
}
)CORPUS";

const char* const kBtrfsKernelSource = R"CORPUS(
#include "fsdep_libc.h"
#include "btrfs_fs.h"

#define EINVAL 22

/* Extracts the value part of an "opt=value" token, or 0. */
static char *btrfs_opt_value(char *token) {
  long i = 0;
  while (token[i]) {
    if (token[i] == '=') {
      return token + i + 1;
    }
    i = i + 1;
  }
  return 0;
}

/*
 * Mount option handling (btrfs_parse_options). The max_inline bound is
 * the headline cross-component dependency: a mount parameter limited by
 * a creation parameter through the superblock.
 */
int btrfs_parse_options(int argc, char **argv, struct btrfs_sb *sb) {
  long max_inline = 2048;
  long commit_interval = 30;
  long thread_pool = 8;
  int compress = 0;
  int autodefrag = 0;
  int nodatacow = 0;
  int nodatasum = 0;
  int i = 0;

  for (i = 1; i < argc; i = i + 1) {
    if (strncmp(argv[i], "max_inline=", 11) == 0) {
      max_inline = parse_num(btrfs_opt_value(argv[i]));
    } else if (strncmp(argv[i], "commit=", 7) == 0) {
      commit_interval = parse_num(btrfs_opt_value(argv[i]));
    } else if (strncmp(argv[i], "thread_pool=", 12) == 0) {
      thread_pool = parse_num(btrfs_opt_value(argv[i]));
    } else if (strcmp(argv[i], "compress") == 0) {
      compress = 1;
    } else if (strcmp(argv[i], "autodefrag") == 0) {
      autodefrag = 1;
    } else if (strcmp(argv[i], "nodatacow") == 0) {
      nodatacow = 1;
    } else if (strcmp(argv[i], "nodatasum") == 0) {
      nodatasum = 1;
    }
  }

  if (commit_interval < 1 || commit_interval > 300) {
    return -EINVAL;
  }
  if (thread_pool < 1 || thread_pool > 256) {
    return -EINVAL;
  }
  /* nodatacow implies nodatasum; enabling checksums without CoW is
   * rejected. */
  if (nodatacow && !nodatasum) {
    com_err("btrfs", "nodatacow requires nodatasum");
    return -EINVAL;
  }
  if (compress && nodatacow) {
    com_err("btrfs", "compression is incompatible with nodatacow");
    return -EINVAL;
  }
  /* The cross-component bound: inline extents must fit in a tree node. */
  if (max_inline > sb->sb_nodesize) {
    com_err("btrfs", "max_inline cannot exceed the node size");
    return -EINVAL;
  }
  return autodefrag >= 0 ? 0 : -1;
}

/*
 * Superblock validation at mount (btrfs_validate_super).
 */
int btrfs_validate_super(struct btrfs_sb *sb) {
  if (sb->sb_magicnum != BTRFS_SB_MAGIC) {
    return -EINVAL;
  }
  if (sb->sb_sectorsize < 4096 || sb->sb_sectorsize > 65536) {
    return -EINVAL;
  }
  if (sb->sb_nodesize < BTRFS_MIN_NODESIZE || sb->sb_nodesize > BTRFS_MAX_NODESIZE) {
    return -EINVAL;
  }
  if (sb->sb_nodesize < sb->sb_sectorsize) {
    return -EINVAL;
  }
  if (sb->sb_num_devices < 1) {
    return -EINVAL;
  }
  return 0;
}
)CORPUS";

const char* const kBtrfsBalanceSource = R"CORPUS(
#include "fsdep_libc.h"
#include "btrfs_fs.h"

/*
 * btrfs-balance: online restriping. Converting to a redundant profile
 * depends on the device count chosen at mkfs time — a control CCD.
 */
int btrfs_balance_main(int argc, char **argv, struct btrfs_sb *sb) {
  long convert_to = -1;
  int to_raid1 = 0;
  int to_raid5 = 0;
  int force = 0;
  int c = 0;

  while ((c = getopt(argc, argv, "15f")) != -1) {
    switch (c) {
      case '1':
        to_raid1 = 1;
        convert_to = BTRFS_RAID_RAID1;
        break;
      case '5':
        to_raid5 = 1;
        convert_to = BTRFS_RAID_RAID5;
        break;
      case 'f':
        force = 1;
        break;
      default:
        usage();
        break;
    }
  }

  if (to_raid1 && sb->sb_num_devices < 2) {
    fatal_error("balance: raid1 conversion needs at least two devices");
    return -1;
  }
  if (to_raid5 && !(sb->sb_features & BTRFS_FEAT_RAID56)) {
    fatal_error("balance: raid5 conversion needs the raid56 feature");
    return -1;
  }
  if (!force && convert_to == sb->sb_data_profile) {
    printf("balance: profile unchanged, nothing to do");
    return 0;
  }

  if (sb->sb_features & BTRFS_FEAT_MIXED_BG) {
    printf("balance: mixed block groups restripe data and metadata together");
  }

  sb->sb_data_profile = convert_to;
  return 0;
}
)CORPUS";

// BtrFS's entry in the file-system table: the components with their taint
// seeds, and its one usage scenario (mkfs.btrfs - mount - BtrFS - btrfs-balance).
FileSystem btrfsFileSystem() {
  FileSystem fs;
  fs.name = "btrfs";
  fs.header = "btrfs_fs.h";
  fs.header_source = kBtrfsFsHeader;
  fs.components = {
      {"mkfs_btrfs", kMkfsBtrfsSource, false, {
          {"mkfs_btrfs_main", "sectorsize", "mkfs_btrfs.sectorsize"},
          {"mkfs_btrfs_main", "nodesize", "mkfs_btrfs.nodesize"},
          {"mkfs_btrfs_main", "num_devices", "mkfs_btrfs.num_devices"},
          {"mkfs_btrfs_main", "total_bytes", "mkfs_btrfs.size"},
          {"mkfs_btrfs_main", "data_profile", "mkfs_btrfs.data_profile"},
          {"mkfs_btrfs_main", "meta_profile", "mkfs_btrfs.meta_profile"},
          {"mkfs_btrfs_main", "mixed_bg", "mkfs_btrfs.mixed_bg"},
          {"mkfs_btrfs_main", "raid56", "mkfs_btrfs.raid56"},
          {"mkfs_btrfs_main", "no_holes", "mkfs_btrfs.no_holes"},
      }},
      {"btrfs", kBtrfsKernelSource, true, {
          {"btrfs_parse_options", "max_inline", "btrfs_mount.max_inline"},
          {"btrfs_parse_options", "commit_interval", "btrfs_mount.commit"},
          {"btrfs_parse_options", "thread_pool", "btrfs_mount.thread_pool"},
          {"btrfs_parse_options", "compress", "btrfs_mount.compress"},
          {"btrfs_parse_options", "autodefrag", "btrfs_mount.autodefrag"},
          {"btrfs_parse_options", "nodatacow", "btrfs_mount.nodatacow"},
          {"btrfs_parse_options", "nodatasum", "btrfs_mount.nodatasum"},
      }},
      {"btrfs_balance", kBtrfsBalanceSource, false, {
          {"btrfs_balance_main", "convert_to", "btrfs_balance.convert"},
          {"btrfs_balance_main", "to_raid1", "btrfs_balance.convert_raid1"},
          {"btrfs_balance_main", "to_raid5", "btrfs_balance.convert_raid5"},
          {"btrfs_balance_main", "force", "btrfs_balance.force"},
      }},
  };
  fs.scenarios = {{.id = "btrfs",
                   .title = "mkfs.btrfs - mount - BtrFS - btrfs-balance",
                   .selection = {{"mkfs_btrfs", {"mkfs_btrfs_main"}},
                                 {"btrfs", {"btrfs_parse_options", "btrfs_validate_super"}},
                                 {"btrfs_balance", {"btrfs_balance_main"}}},
                   .metadata_owner = "btrfs"}};
  return fs;
}

}  // namespace fsdep::corpus
