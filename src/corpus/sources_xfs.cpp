// The XFS mini-ecosystem: the paper's §6 names XFS as the next target for
// the methodology ("we plan to apply the methodology to analyze other
// popular open-source file systems (e.g., XFS, BtrFS)"). Three
// components — mkfs.xfs, the kernel mount path, xfs_growfs — share the
// on-disk superblock through "xfs_fs.h", exactly like the Ext4 corpus
// shares "ext4_fs.h". No analyzer change is needed: only sources, seeds
// and a scenario differ.
#include "corpus/sources_internal.h"

namespace fsdep::corpus {

const char* const kXfsFsHeader = R"CORPUS(
#ifndef XFS_FS_H
#define XFS_FS_H

typedef unsigned char  u8;
typedef unsigned short u16;
typedef unsigned int   u32;
typedef unsigned long  u64;

#define XFS_SB_MAGIC 1481003842
#define XFS_MIN_BLOCKSIZE 512
#define XFS_MAX_BLOCKSIZE 65536
#define XFS_MIN_AG_BLOCKS 64
#define XFS_MAX_AGCOUNT 1000000

/* Feature flags (xfs v5-era, trimmed). */
enum xfs_features {
  XFS_FEAT_CRC     = 0x0001,
  XFS_FEAT_FTYPE   = 0x0002,
  XFS_FEAT_REFLINK = 0x0004,
  XFS_FEAT_RMAPBT  = 0x0008,
  XFS_FEAT_BIGTIME = 0x0010
};

/* The XFS superblock (trimmed to the configuration-relevant fields). */
struct xfs_sb {
  u32 sb_magicnum;
  u32 sb_blocksize;
  u32 sb_dblocks;
  u32 sb_agblocks;
  u32 sb_agcount;
  u32 sb_logblocks;
  u16 sb_inodesize;
  u16 sb_sectsize;
  u8  sb_imax_pct;
  u32 sb_fdblocks;
  u32 sb_features;
};

#endif
)CORPUS";

const char* const kMkfsXfsSource = R"CORPUS(
#include "fsdep_libc.h"
#include "xfs_fs.h"

/*
 * mkfs.xfs: option parsing, validation, superblock fill.
 */
int mkfs_xfs_main(int argc, char **argv, struct xfs_sb *sb) {
  long blocksize = 4096;
  long inodesize = 512;
  long agcount = 4;
  long logblocks = 2560;
  long imaxpct = 25;
  long fs_blocks = 0;
  int crc = 1;
  int ftype = 1;
  int reflink = 1;
  int rmapbt = 0;
  int bigtime = 0;
  int c = 0;

  while ((c = getopt(argc, argv, "b:i:d:l:p:m:")) != -1) {
    switch (c) {
      case 'b':
        blocksize = parse_num(optarg);
        break;
      case 'i':
        inodesize = parse_num(optarg);
        break;
      case 'd':
        agcount = parse_num(optarg);
        break;
      case 'l':
        logblocks = parse_num(optarg);
        break;
      case 'p':
        imaxpct = parse_num(optarg);
        break;
      case 'm':
        if (strcmp(optarg, "crc=0") == 0) {
          crc = 0;
        } else if (strcmp(optarg, "reflink=1") == 0) {
          reflink = 1;
        } else if (strcmp(optarg, "reflink=0") == 0) {
          reflink = 0;
        } else if (strcmp(optarg, "rmapbt=1") == 0) {
          rmapbt = 1;
        } else if (strcmp(optarg, "bigtime=1") == 0) {
          bigtime = 1;
        }
        break;
      default:
        usage();
        break;
    }
  }

  fs_blocks = strtol(argv[optind], 0, 10);

  /* ---- Self dependencies. ---- */
  if (blocksize < XFS_MIN_BLOCKSIZE || blocksize > XFS_MAX_BLOCKSIZE) {
    usage();
  }
  if (blocksize & (blocksize - 1)) {
    usage();
  }
  if (inodesize < 256 || inodesize > 2048) {
    usage();
  }
  if (agcount < 1 || agcount > XFS_MAX_AGCOUNT) {
    usage();
  }
  if (logblocks < 512 || logblocks > 1048576) {
    usage();
  }
  if (imaxpct < 0 || imaxpct > 100) {
    usage();
  }

  /* ---- Cross-parameter dependencies (the v5 feature matrix). ---- */
  if (reflink && !crc) {
    fatal_error("reflink requires the crc (v5) format");
  }
  if (rmapbt && !crc) {
    fatal_error("rmapbt requires the crc (v5) format");
  }
  if (bigtime && !crc) {
    fatal_error("bigtime requires the crc (v5) format");
  }
  if (inodesize * 2 > blocksize) {
    fatal_error("inode size cannot exceed half the block size");
  }
  if (fs_blocks < agcount * XFS_MIN_AG_BLOCKS) {
    fatal_error("too many allocation groups for the device size");
  }

  /* ---- Persist the configuration (the CCD bridge writes). ---- */
  sb->sb_magicnum = XFS_SB_MAGIC;
  sb->sb_blocksize = blocksize;
  sb->sb_dblocks = fs_blocks;
  sb->sb_agcount = agcount;
  sb->sb_agblocks = fs_blocks / agcount;
  sb->sb_inodesize = inodesize;
  sb->sb_logblocks = logblocks;
  sb->sb_imax_pct = imaxpct;
  sb->sb_fdblocks = fs_blocks - logblocks - 64;
  sb->sb_features |= (crc ? XFS_FEAT_CRC : 0);
  sb->sb_features |= (ftype ? XFS_FEAT_FTYPE : 0);
  sb->sb_features |= (reflink ? XFS_FEAT_REFLINK : 0);
  sb->sb_features |= (rmapbt ? XFS_FEAT_RMAPBT : 0);
  sb->sb_features |= (bigtime ? XFS_FEAT_BIGTIME : 0);
  return 0;
}
)CORPUS";

const char* const kXfsKernelSource = R"CORPUS(
#include "fsdep_libc.h"
#include "xfs_fs.h"

#define EINVAL 22

static int xfs_sb_good_magic(struct xfs_sb *sb) {
  return sb->sb_magicnum == XFS_SB_MAGIC;
}

static int xfs_has_rmapbt(struct xfs_sb *sb) {
  return sb->sb_features & XFS_FEAT_RMAPBT;
}

/* Extracts the value part of an "opt=value" token, or 0. */
static char *xfs_opt_value(char *token) {
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
 * Mount option parsing (xfs_parseargs in the real kernel).
 */
int xfs_parse_options(int argc, char **argv) {
  long logbufs = 8;
  long logbsize = 32768;
  int wsync = 0;
  int noalign = 0;
  int norecovery = 0;
  int ro = 0;
  int i = 0;

  for (i = 1; i < argc; i = i + 1) {
    if (strncmp(argv[i], "logbufs=", 8) == 0) {
      logbufs = parse_num(xfs_opt_value(argv[i]));
    } else if (strncmp(argv[i], "logbsize=", 9) == 0) {
      logbsize = parse_num(xfs_opt_value(argv[i]));
    } else if (strcmp(argv[i], "wsync") == 0) {
      wsync = 1;
    } else if (strcmp(argv[i], "noalign") == 0) {
      noalign = 1;
    } else if (strcmp(argv[i], "norecovery") == 0) {
      norecovery = 1;
    } else if (strcmp(argv[i], "ro") == 0) {
      ro = 1;
    }
  }

  if (logbufs < 2 || logbufs > 8) {
    return -EINVAL;
  }
  if (logbsize < 16384 || logbsize > 262144) {
    return -EINVAL;
  }
  if (norecovery && !ro) {
    com_err("xfs", "norecovery requires a read-only mount");
    return -EINVAL;
  }
  return wsync + noalign >= 0 ? 0 : -1;
}

/*
 * Superblock validation at mount (xfs_validate_sb_common).
 */
int xfs_mount_validate_sb(struct xfs_sb *sb) {
  if (!xfs_sb_good_magic(sb)) {
    return -EINVAL;
  }
  if (sb->sb_blocksize < XFS_MIN_BLOCKSIZE || sb->sb_blocksize > XFS_MAX_BLOCKSIZE) {
    return -EINVAL;
  }
  if (sb->sb_inodesize < 256 || sb->sb_inodesize > 2048) {
    return -EINVAL;
  }
  if (sb->sb_agcount < 1) {
    return -EINVAL;
  }
  if (sb->sb_imax_pct > 100) {
    return -EINVAL;
  }
  if (sb->sb_dblocks < sb->sb_agblocks) {
    return -EINVAL;
  }
  return 0;
}
)CORPUS";

const char* const kXfsGrowfsSource = R"CORPUS(
#include "fsdep_libc.h"
#include "xfs_fs.h"

/*
 * xfs_growfs: online growing. XFS famously cannot shrink; the grow path
 * extends the last allocation group and appends new ones, both decisions
 * gated by mkfs.xfs-era geometry read back from the superblock.
 */
int xfs_growfs_main(int argc, char **argv, struct xfs_sb *sb) {
  long new_dblocks = 0;
  int dry_run = 0;
  int c = 0;
  long size_spec = 0;

  while ((c = getopt(argc, argv, "n")) != -1) {
    switch (c) {
      case 'n':
        dry_run = 1;
        break;
      default:
        usage();
        break;
    }
  }

  size_spec = parse_size(argv[optind]);
  new_dblocks = size_spec / sb->sb_blocksize;

  if (new_dblocks < sb->sb_dblocks) {
    fatal_error("xfs_growfs: shrinking is not supported");
    return -1;
  }

  if (sb->sb_features & XFS_FEAT_RMAPBT) {
    printf("growfs: extending the reverse-mapping btree per AG");
  }

  if (dry_run) {
    printf("growfs: dry run, no changes written");
    return 0;
  }

  if (new_dblocks == sb->sb_dblocks) {
    printf("growfs: nothing to do");
    return 0;
  }

  sb->sb_dblocks = new_dblocks;
  sb->sb_fdblocks = sb->sb_fdblocks + (new_dblocks - sb->sb_dblocks);
  return 0;
}
)CORPUS";

// XFS's entry in the file-system table: the components with their taint
// seeds, and its one usage scenario (mkfs.xfs - mount - XFS - xfs_growfs).
FileSystem xfsFileSystem() {
  FileSystem fs;
  fs.name = "xfs";
  fs.header = "xfs_fs.h";
  fs.header_source = kXfsFsHeader;
  fs.components = {
      {"mkfs_xfs", kMkfsXfsSource, false, {
          {"mkfs_xfs_main", "fs_blocks", "mkfs_xfs.size"},
          {"mkfs_xfs_main", "blocksize", "mkfs_xfs.blocksize"},
          {"mkfs_xfs_main", "inodesize", "mkfs_xfs.inodesize"},
          {"mkfs_xfs_main", "agcount", "mkfs_xfs.agcount"},
          {"mkfs_xfs_main", "logblocks", "mkfs_xfs.logblocks"},
          {"mkfs_xfs_main", "imaxpct", "mkfs_xfs.imaxpct"},
          {"mkfs_xfs_main", "crc", "mkfs_xfs.crc"},
          {"mkfs_xfs_main", "ftype", "mkfs_xfs.ftype"},
          {"mkfs_xfs_main", "reflink", "mkfs_xfs.reflink"},
          {"mkfs_xfs_main", "rmapbt", "mkfs_xfs.rmapbt"},
          {"mkfs_xfs_main", "bigtime", "mkfs_xfs.bigtime"},
      }},
      {"xfs", kXfsKernelSource, true, {
          {"xfs_parse_options", "logbufs", "xfs_mount.logbufs"},
          {"xfs_parse_options", "logbsize", "xfs_mount.logbsize"},
          {"xfs_parse_options", "wsync", "xfs_mount.wsync"},
          {"xfs_parse_options", "noalign", "xfs_mount.noalign"},
          {"xfs_parse_options", "norecovery", "xfs_mount.norecovery"},
          {"xfs_parse_options", "ro", "xfs_mount.ro"},
      }},
      {"xfs_growfs", kXfsGrowfsSource, false, {
          {"xfs_growfs_main", "new_dblocks", "xfs_growfs.size"},
          {"xfs_growfs_main", "dry_run", "xfs_growfs.dry_run"},
      }},
  };
  fs.scenarios = {{.id = "xfs",
                   .title = "mkfs.xfs - mount - XFS - xfs_growfs",
                   .selection = {{"mkfs_xfs", {"mkfs_xfs_main"}},
                                 {"xfs", {"xfs_parse_options", "xfs_mount_validate_sb"}},
                                 {"xfs_growfs", {"xfs_growfs_main"}}},
                   .metadata_owner = "xfs"}};
  return fs;
}

}  // namespace fsdep::corpus
