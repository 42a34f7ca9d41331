// Structured manuals for ConDocCk. The claims mirror the shipped man
// pages: most true dependencies are documented accurately, nine are
// missing, two state wrong bounds, and one is stale (documents a
// constraint the code does not have) — 12 documentation issues in total,
// matching §4.3 of the paper ("12 inaccurate documentations", with the
// meta_bg/resize_inode omission as the worked example).
#include <stdexcept>

#include "corpus/corpus.h"

namespace fsdep::corpus {

namespace {

using model::ConstraintOp;
using model::DepKind;
using model::Dependency;

/// Copies the dependency of a ground-truth entry by id.
Dependency claimFromGroundTruth(const std::string& id) {
  for (const extract::GroundTruthEntry& entry : groundTruth()) {
    if (entry.dep.id == id) return entry.dep;
  }
  throw std::runtime_error("manuals: unknown ground truth id " + id);
}

ManualEntry accurate(const std::string& gt_id, std::string text) {
  ManualEntry entry;
  entry.claim = claimFromGroundTruth(gt_id);
  entry.text = std::move(text);
  return entry;
}

std::vector<ManualEntry> build() {
  std::vector<ManualEntry> m;

  // ---- mke2fs(8): data types. ----
  m.push_back(accurate("gt-sd-type-mke2fs.blocksize", "-b block-size: specify the size of blocks in bytes."));
  m.push_back(accurate("gt-sd-type-mke2fs.inode_size", "-I inode-size: specify the size of each inode in bytes."));
  m.push_back(accurate("gt-sd-type-mke2fs.inode_ratio", "-i bytes-per-inode: specify the bytes/inode ratio."));
  m.push_back(accurate("gt-sd-type-mke2fs.reserved_ratio", "-m reserved-blocks-percentage."));
  m.push_back(accurate("gt-sd-type-mke2fs.blocks_per_group", "-g blocks-per-group."));
  m.push_back(accurate("gt-sd-type-mke2fs.flex_bg_size", "-G number-of-groups per flex group."));
  m.push_back(accurate("gt-sd-type-mke2fs.revision", "-r revision: set the filesystem revision."));

  // ---- mke2fs(8): ranges. Two are WRONG in the shipped manual. ----
  {
    // Manual still shows the ext2-era upper bound of 4096.
    ManualEntry wrong;
    wrong.claim = claimFromGroundTruth("gt-sd-range-mke2fs.blocksize");
    wrong.claim.high = 4096;
    wrong.text = "Valid block-size values are 1024, 2048 and 4096 bytes per block.";
    m.push_back(std::move(wrong));
  }
  m.push_back(accurate("gt-sd-range-mke2fs.inode_size", "The inode size must be a power of 2 larger or equal to 128 and no larger than 4096."));
  m.push_back(accurate("gt-sd-range-mke2fs.inode_ratio", "bytes-per-inode must be at least 1024 and at most 64MiB."));
  {
    // Manual forgot the 50% cap introduced with the sanity checks.
    ManualEntry wrong;
    wrong.claim = claimFromGroundTruth("gt-sd-range-mke2fs.reserved_ratio");
    wrong.claim.high = 100;
    wrong.text = "-m: specify the percentage of reserved blocks, between 0 and 100.";
    m.push_back(std::move(wrong));
  }
  m.push_back(accurate("gt-sd-range-mke2fs.blocks_per_group", "blocks-per-group must be a multiple of 8 between 256 and 65528."));
  m.push_back(accurate("gt-sd-pow2-mke2fs.flex_bg_size", "The -G argument must be a power of 2."));
  m.push_back(accurate("gt-sd-range-mke2fs.revision", "Revision 0 and 1 filesystems are supported."));

  // ---- mke2fs(8): feature interactions. ----
  // MISSING: meta_bg/resize_inode (the paper's worked example),
  //          resize_limit->resize_inode, encrypt/bigalloc,
  //          inode_ratio>=blocksize, size>=blocksize.
  m.push_back(accurate("gt-cpd-mke2fs.bigalloc-mke2fs.extent", "bigalloc requires the extent feature."));
  m.push_back(accurate("gt-cpd-mke2fs.sparse_super2-mke2fs.resize_inode", "sparse_super2 disallows the resize_inode feature."));
  m.push_back(accurate("gt-cpd-mke2fs.64bit-mke2fs.extent", "64bit requires extents to address the full block range."));
  m.push_back(accurate("gt-cpd-mke2fs.quota-mke2fs.has_journal", "The quota feature requires a journal."));
  m.push_back(accurate("gt-cpd-mke2fs.journal_dev-mke2fs.has_journal", "journal_dev cannot be combined with an internal journal."));
  m.push_back(accurate("gt-cpd-mke2fs.cluster_size-mke2fs.bigalloc", "-C is only meaningful together with -O bigalloc."));
  m.push_back(accurate("gt-cpd-mke2fs.uninit_bg-mke2fs.metadata_csum", "uninit_bg and metadata_csum are mutually exclusive."));
  m.push_back(accurate("gt-cpd-mke2fs.flex_bg_size-mke2fs.flex_bg", "-G requires the flex_bg feature."));
  m.push_back(accurate("gt-cpd-mke2fs.inline_data-mke2fs.extent", "inline_data requires the extent feature."));
  m.push_back(accurate("gt-cpd-mke2fs.inode_size-mke2fs.blocksize", "The inode size cannot exceed the block size."));
  m.push_back(accurate("gt-cpd-mke2fs.blocks_per_group-mke2fs.blocksize", "At most 8*block-size blocks per group (one bitmap block)."));
  m.push_back(accurate("gt-cpd-mke2fs.cluster_size-mke2fs.blocksize", "The cluster size must be at least the block size."));

  // STALE: the manual still documents a constraint the code dropped.
  {
    ManualEntry stale;
    stale.claim.kind = DepKind::CpdControl;
    stale.claim.op = ConstraintOp::Excludes;
    stale.claim.param = "mke2fs.sparse_super";
    stale.claim.other_param = "mke2fs.sparse_super2";
    stale.claim.id = "manual-stale-sparse-super";
    stale.claim.description = "sparse_super cannot be combined with sparse_super2";
    stale.text = "sparse_super cannot be combined with sparse_super2 (obsolete restriction).";
    m.push_back(std::move(stale));
  }

  // ---- mount(8) / ext4(5): types and ranges. ----
  m.push_back(accurate("gt-sd-type-mount.commit", "commit=nrsec: sync all data every nrsec seconds."));
  m.push_back(accurate("gt-sd-type-mount.stripe", "stripe=n: stripe size in blocks."));
  m.push_back(accurate("gt-sd-type-mount.inode_readahead_blks", "inode_readahead_blks=n."));
  m.push_back(accurate("gt-sd-type-mount.max_batch_time", "max_batch_time=usec."));
  m.push_back(accurate("gt-sd-range-mount.stripe", "stripe values up to 2097152 blocks are accepted."));

  // ---- ext4(5): mount option interactions. ----
  // MISSING: nobh->data_writeback, usrjquota->jqfmt.
  m.push_back(accurate("gt-cpd-mount.dax-mount.data_journal", "dax cannot be used with data=journal."));
  m.push_back(accurate("gt-cpd-mount.noload-mount.ro", "noload requires a read-only mount."));
  m.push_back(accurate("gt-cpd-mount.journal_async_commit-mount.journal_checksum", "journal_async_commit implies journal_checksum."));
  m.push_back(accurate("gt-cpd-mount.dioread_nolock-mount.data_journal", "dioread_nolock is not supported with data=journal."));
  m.push_back(accurate("gt-cpd-mount.delalloc-mount.data_journal", "delalloc is not supported with data=journal."));
  m.push_back(accurate("gt-cpd-mount.data_journal-mount.auto_da_alloc", "auto_da_alloc has no effect with data=journal and is rejected on remount."));

  // ---- ext4(5): persistent field domains. MISSING: s_error_count. ----
  m.push_back(accurate("gt-sd-range-ext4.s_log_block_size", "Block sizes from 1KiB to 64KiB are supported."));
  m.push_back(accurate("gt-sd-range-ext4.s_inode_size", "On-disk inode sizes from 128 to 4096 bytes."));
  m.push_back(accurate("gt-sd-range-ext4.s_rev_level", "Revision levels 0 and 1."));
  m.push_back(accurate("gt-sd-range-ext4.s_first_ino", "The first non-reserved inode is 11."));
  m.push_back(accurate("gt-sd-range-ext4.s_desc_size", "Group descriptors are 32 or 64 bytes."));
  m.push_back(accurate("gt-sd-range-ext4.s_first_data_block", "The first data block is 0 or 1."));
  m.push_back(accurate("gt-sd-range-ext4.s_inodes_per_group", "Between 8 and 65536 inodes per group."));
  m.push_back(accurate("gt-sd-range-ext4.s_reserved_gdt_blocks", "At most 1024 reserved GDT blocks."));
  m.push_back(accurate("gt-sd-range-ext4.s_log_cluster_size", "Cluster sizes up to 64KiB."));

  // ---- resize2fs(8). MISSING: online->resize_inode (D2). ----
  m.push_back(accurate("gt-ccd-resize2fs.size-mke2fs.size", "If size is larger than the current size the filesystem grows, otherwise it shrinks."));
  m.push_back(accurate("gt-ccd-resize2fs.resize2fs_adjust_last_group-mke2fs.sparse_super2", "With sparse_super2 the last block group is handled specially during resize."));
  m.push_back(accurate("gt-ccd-resize2fs.size-mke2fs.blocksize", "The size parameter is interpreted in filesystem blocksize units."));
  m.push_back(accurate("gt-ccd-resize2fs.size-mke2fs.reserved_ratio", "The filesystem cannot shrink below the reserved area."));

  return m;
}

const std::vector<ManualEntry>& allManualsStorage() {
  static const std::vector<ManualEntry> kManuals = build();
  return kManuals;
}

}  // namespace

std::vector<ManualEntry> allManuals() { return allManualsStorage(); }

}  // namespace fsdep::corpus
