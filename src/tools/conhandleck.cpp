#include "tools/conhandleck.h"

#include <optional>

#include "corpus/pipeline.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/resize.h"

namespace fsdep::tools {

using model::ConstraintOp;
using model::DepKind;
using model::Dependency;
using namespace fsim;

const char* handleOutcomeName(HandleOutcome outcome) {
  switch (outcome) {
    case HandleOutcome::RejectedGracefully: return "rejected-gracefully";
    case HandleOutcome::BehavedConsistently: return "behaved-consistently";
    case HandleOutcome::SilentAccept: return "silent-accept";
    case HandleOutcome::Corruption: return "CORRUPTION";
    case HandleOutcome::NotApplicable: return "not-applicable";
  }
  return "?";
}

int HandleCheckReport::countOf(HandleOutcome outcome) const {
  int n = 0;
  for (const HandleCase& c : cases) n += c.outcome == outcome ? 1 : 0;
  return n;
}

std::string HandleCheckReport::summary() const {
  return std::to_string(cases.size()) + " case(s): " +
         std::to_string(countOf(HandleOutcome::RejectedGracefully)) + " rejected, " +
         std::to_string(countOf(HandleOutcome::BehavedConsistently)) + " consistent, " +
         std::to_string(countOf(HandleOutcome::SilentAccept)) + " silent-accept, " +
         std::to_string(countOf(HandleOutcome::Corruption)) + " corruption, " +
         std::to_string(countOf(HandleOutcome::NotApplicable)) + " n/a";
}

namespace {

MkfsOptions baseMkfs() {
  MkfsOptions o;
  o.block_size = 1024;
  o.size_blocks = 2048;
  o.blocks_per_group = 512;
  o.inode_ratio = 8192;
  return o;
}

/// Formats a valid baseline image on a fresh device.
std::optional<BlockDevice> makeImage(const MkfsOptions& options) {
  BlockDevice device(8192, options.block_size);
  if (!MkfsTool::format(device, options).ok()) return std::nullopt;
  return device;
}

/// Applies a named mke2fs flag to the options (true = enable).
bool setMkfsFlag(MkfsOptions& o, const std::string& name, bool value) {
  if (name == "meta_bg") o.meta_bg = value;
  else if (name == "resize_inode") o.resize_inode = value;
  else if (name == "sparse_super2") o.sparse_super2 = value;
  else if (name == "bigalloc") o.bigalloc = value;
  else if (name == "extent") o.extents = value;
  else if (name == "64bit") o.has_64bit = value;
  else if (name == "quota") o.quota = value;
  else if (name == "has_journal") o.has_journal = value;
  else if (name == "uninit_bg") o.uninit_bg = value;
  else if (name == "metadata_csum") o.metadata_csum = value;
  else if (name == "flex_bg") o.flex_bg = value;
  else if (name == "inline_data") o.inline_data = value;
  else if (name == "encrypt") o.encrypt = value;
  else if (name == "cluster_size") o.cluster_size = value ? 2048 : 0;
  else if (name == "resize_limit") o.resize_limit_blocks = value ? 65536 : 0;
  else return false;
  return true;
}

bool setMkfsValue(MkfsOptions& o, const std::string& name, std::int64_t value) {
  if (name == "blocksize") o.block_size = static_cast<std::uint32_t>(value);
  else if (name == "inode_size") o.inode_size = static_cast<std::uint16_t>(value);
  else if (name == "inode_ratio") o.inode_ratio = static_cast<std::uint32_t>(value);
  else if (name == "reserved_ratio") o.reserved_ratio = static_cast<std::uint32_t>(value);
  else if (name == "blocks_per_group") o.blocks_per_group = static_cast<std::uint32_t>(value);
  else if (name == "cluster_size") o.cluster_size = static_cast<std::uint32_t>(value);
  else if (name == "size") o.size_blocks = static_cast<std::uint32_t>(value);
  else return false;
  return true;
}

bool setMountFlag(MountOptions& o, const std::string& name, bool value) {
  if (name == "dax") o.dax = value;
  else if (name == "ro") o.read_only = value;
  else if (name == "noload") o.noload = value;
  else if (name == "data_journal") o.data_mode = value ? DataMode::Journal : DataMode::Ordered;
  else if (name == "data_writeback") o.data_mode = value ? DataMode::Writeback : DataMode::Ordered;
  else if (name == "journal_checksum") o.journal_checksum = value;
  else if (name == "journal_async_commit") o.journal_async_commit = value;
  else if (name == "dioread_nolock") o.dioread_nolock = value;
  else if (name == "delalloc") o.delalloc = value;
  else if (name == "auto_da_alloc") o.auto_da_alloc = value;
  else return false;
  return true;
}

bool setMountValue(MountOptions& o, const std::string& name, std::int64_t value) {
  if (name == "commit") o.commit_interval = static_cast<std::uint32_t>(value);
  else if (name == "stripe") o.stripe = static_cast<std::uint32_t>(value);
  else if (name == "inode_readahead_blks") o.inode_readahead_blks = static_cast<std::uint32_t>(value);
  else if (name == "max_batch_time") o.max_batch_time = static_cast<std::uint32_t>(value);
  else if (name == "min_batch_time") o.min_batch_time = static_cast<std::uint32_t>(value);
  else return false;
  return true;
}

bool setSuperblockField(Superblock& sb, const std::string& field, std::int64_t value) {
  if (field == "s_log_block_size") sb.log_block_size = static_cast<std::uint32_t>(value);
  else if (field == "s_inode_size") sb.inode_size = static_cast<std::uint16_t>(value);
  else if (field == "s_rev_level") sb.rev_level = static_cast<std::uint32_t>(value);
  else if (field == "s_first_ino") sb.first_inode = static_cast<std::uint32_t>(value);
  else if (field == "s_desc_size") sb.desc_size = static_cast<std::uint16_t>(value);
  else if (field == "s_first_data_block") sb.first_data_block = static_cast<std::uint32_t>(value);
  else if (field == "s_inodes_per_group") sb.inodes_per_group = static_cast<std::uint32_t>(value);
  else if (field == "s_reserved_gdt_blocks") sb.reserved_gdt_blocks = static_cast<std::uint16_t>(value);
  else if (field == "s_error_count") sb.error_count = static_cast<std::uint32_t>(value);
  else return false;
  return true;
}

std::string componentOf(const std::string& qualified) {
  return qualified.substr(0, qualified.find('.'));
}

std::string nameOf(const std::string& qualified) {
  const std::size_t dot = qualified.find('.');
  return dot == std::string::npos ? qualified : qualified.substr(dot + 1);
}

/// Runs mkfs with the given (possibly invalid) options and classifies.
HandleOutcome classifyMkfs(const MkfsOptions& options, std::string& detail) {
  const std::uint32_t device_bs =
      (options.block_size >= 512 && options.block_size <= 1 << 20 &&
       (options.block_size & (options.block_size - 1)) == 0)
          ? options.block_size
          : 1024;
  BlockDevice device(8192, device_bs);
  const Result<Superblock> result = MkfsTool::format(device, options);
  if (!result.ok()) {
    detail = result.error().message;
    return HandleOutcome::RejectedGracefully;
  }
  const Result<FsckReport> fsck = FsckTool::check(device, FsckOptions{.force = true});
  if (fsck.ok() && !fsck.value().isClean()) {
    detail = fsck.value().summary();
    return HandleOutcome::Corruption;
  }
  detail = "mkfs accepted the configuration without complaint";
  return HandleOutcome::SilentAccept;
}

/// Mounts with (possibly invalid) options on a valid image.
HandleOutcome classifyMount(const MountOptions& options, std::string& detail) {
  std::optional<BlockDevice> device = makeImage(baseMkfs());
  if (!device) {
    detail = "baseline image could not be created";
    return HandleOutcome::NotApplicable;
  }
  Result<MountedFs> mounted = MountTool::mount(*device, options);
  if (!mounted.ok()) {
    detail = mounted.error().message;
    return HandleOutcome::RejectedGracefully;
  }
  mounted.value().unmount();
  const Result<FsckReport> fsck = FsckTool::check(*device, FsckOptions{.force = true});
  if (fsck.ok() && !fsck.value().isClean()) {
    detail = fsck.value().summary();
    return HandleOutcome::Corruption;
  }
  detail = "mount accepted the configuration without complaint";
  return HandleOutcome::SilentAccept;
}

/// Corrupts one superblock field on a valid image, then mounts.
HandleOutcome classifyFieldViolation(const std::string& field, std::int64_t value,
                                     std::string& detail) {
  std::optional<BlockDevice> device = makeImage(baseMkfs());
  if (!device) return HandleOutcome::NotApplicable;
  FsImage image(*device);
  Superblock sb = image.loadSuperblock();
  if (!setSuperblockField(sb, field, value)) {
    detail = "field not modelled by the simulator";
    return HandleOutcome::NotApplicable;
  }
  sb.updateChecksum();
  image.storeSuperblock(sb);
  Result<MountedFs> mounted = MountTool::mount(*device, MountOptions{});
  if (!mounted.ok()) {
    detail = mounted.error().message;
    return HandleOutcome::RejectedGracefully;
  }
  mounted.value().unmount();
  detail = "mount accepted the out-of-range field " + field;
  return HandleOutcome::SilentAccept;
}

/// Behavioural probe: full create-mount-use-umount-resize-fsck pipeline.
HandleOutcome classifyResizeProbe(const MkfsOptions& mkfs_options, std::uint32_t new_size,
                                  bool online, std::string& detail) {
  std::optional<BlockDevice> device = makeImage(mkfs_options);
  if (!device) return HandleOutcome::NotApplicable;
  Result<MountedFs> mounted = MountTool::mount(*device, MountOptions{});
  if (mounted.ok()) {
    (void)mounted.value().createFile(6144, 2);
    mounted.value().unmount();
  }
  ResizeOptions ro;
  ro.new_size_blocks = new_size;
  ro.online = online;
  const Result<ResizeReport> resized = ResizeTool::resize(*device, ro);
  if (!resized.ok()) {
    detail = resized.error().message;
    return HandleOutcome::RejectedGracefully;
  }
  const Result<FsckReport> fsck = FsckTool::check(*device, FsckOptions{.force = true});
  if (fsck.ok() && fsck.value().corruptionCount() > 0) {
    detail = "resize accepted, then fsck found: " + fsck.value().summary();
    return HandleOutcome::Corruption;
  }
  detail = "resize completed; filesystem consistent";
  return HandleOutcome::BehavedConsistently;
}

}  // namespace

HandleCheckReport runHandleCheck(const std::vector<Dependency>& deps) {
  obs::Span span("conhandleck", "handle-check");
  HandleCheckReport report;

  for (const Dependency& dep : deps) {
    HandleCase hc;
    hc.dependency_id = dep.id;

    const std::string component = componentOf(dep.param);
    const std::string name = nameOf(dep.param);

    switch (dep.kind) {
      case DepKind::SdValueRange: {
        // Violate by stepping outside a bound.
        std::int64_t bad_value = dep.high ? *dep.high + 1 : (dep.low ? *dep.low - 1 : -1);
        if (dep.op == ConstraintOp::PowerOfTwo) bad_value = 3000;  // not a power of two
        if (dep.op == ConstraintOp::MultipleOf && dep.low) bad_value = *dep.low + 1;
        hc.description = dep.param + " = " + std::to_string(bad_value);
        if (component == "mke2fs") {
          MkfsOptions o = baseMkfs();
          if (!setMkfsValue(o, name, bad_value)) break;
          hc.outcome = classifyMkfs(o, hc.detail);
        } else if (component == "mount") {
          MountOptions o;
          if (!setMountValue(o, name, bad_value)) break;
          hc.outcome = classifyMount(o, hc.detail);
        } else if (component == "ext4") {
          hc.outcome = classifyFieldViolation(name, bad_value, hc.detail);
        }
        break;
      }

      case DepKind::SdDataType:
        // Type violations happen at the string-parsing layer, which the
        // simulator's typed API makes unrepresentable by construction.
        hc.description = dep.param + " given a non-" + dep.type_name + " value";
        hc.outcome = HandleOutcome::NotApplicable;
        hc.detail = "typed simulator API cannot express a mistyped value";
        break;

      case DepKind::CpdControl:
      case DepKind::CcdControl: {
        const std::string other_component = componentOf(dep.other_param);
        const std::string other_name = nameOf(dep.other_param);
        const bool enable_other = dep.op == ConstraintOp::Excludes;  // violate
        hc.description = dep.param + " with " + dep.other_param +
                         (enable_other ? " enabled" : " disabled");
        if (component == "resize2fs" && name == "online") {
          // CCD-control: online resize without the resize_inode reserve.
          MkfsOptions o = baseMkfs();
          o.resize_inode = false;
          hc.outcome = classifyResizeProbe(o, 3072, /*online=*/true, hc.detail);
          break;
        }
        if (component == "mke2fs" && other_component == "mke2fs") {
          MkfsOptions o = baseMkfs();
          bool ok = setMkfsFlag(o, name, true);
          ok = setMkfsFlag(o, other_name, enable_other) && ok;
          if (name == "sparse_super2" || other_name == "sparse_super2") {
            // keep the pair to just the two features under test
            if (name != "resize_inode" && other_name != "resize_inode") o.resize_inode = false;
          }
          if (!ok) break;
          hc.outcome = classifyMkfs(o, hc.detail);
        } else if (component == "mount" && other_component == "mount") {
          MountOptions o;
          bool ok = setMountFlag(o, name, true);
          ok = setMountFlag(o, other_name, enable_other) && ok;
          if (!ok) break;
          hc.outcome = classifyMount(o, hc.detail);
        }
        break;
      }

      case DepKind::CpdValue: {
        hc.description = "violate " + dep.summary();
        if (dep.param == "mke2fs.inode_size" && dep.other_param == "mke2fs.blocksize") {
          MkfsOptions o = baseMkfs();
          o.block_size = 1024;
          o.inode_size = 2048;
          hc.outcome = classifyMkfs(o, hc.detail);
        } else if (dep.param == "mke2fs.blocks_per_group") {
          MkfsOptions o = baseMkfs();
          o.block_size = 1024;
          o.blocks_per_group = 16384;  // > 8 * blocksize
          hc.outcome = classifyMkfs(o, hc.detail);
        } else if (dep.param == "mke2fs.cluster_size") {
          MkfsOptions o = baseMkfs();
          o.bigalloc = true;
          o.cluster_size = 512;  // < blocksize
          hc.outcome = classifyMkfs(o, hc.detail);
        } else if (dep.param == "mke2fs.inode_ratio") {
          MkfsOptions o = baseMkfs();
          o.block_size = 4096;
          o.size_blocks = 0;
          o.blocks_per_group = 0;
          o.inode_ratio = 2048;  // < blocksize
          {
            BlockDevice device(2048, 4096);
            const Result<Superblock> r = MkfsTool::format(device, o);
            if (!r.ok()) {
              hc.outcome = HandleOutcome::RejectedGracefully;
              hc.detail = r.error().message;
            } else {
              hc.outcome = HandleOutcome::SilentAccept;
              hc.detail = "accepted";
            }
          }
        } else if (dep.param == "mount.min_batch_time") {
          MountOptions o;
          o.min_batch_time = 30000;
          o.max_batch_time = 15000;
          hc.outcome = classifyMount(o, hc.detail);
        } else if (dep.param == "mke2fs.size") {
          MkfsOptions o = baseMkfs();
          o.size_blocks = 4;  // below the whole-image minimum
          hc.outcome = classifyMkfs(o, hc.detail);
        }
        break;
      }

      case DepKind::CcdValue: {
        // resize2fs.size >= reserved minimum: shrink below it.
        hc.description = "shrink below the reserved minimum";
        hc.outcome = classifyResizeProbe(baseMkfs(), 16, /*online=*/false, hc.detail);
        break;
      }

      case DepKind::CcdBehavioral: {
        // Boundary probes: exercise the behaviour the dependency gates.
        if (dep.other_param == "mke2fs.sparse_super2") {
          MkfsOptions o = baseMkfs();
          o.sparse_super2 = true;
          o.resize_inode = false;
          hc.description = "grow a sparse_super2 filesystem (Figure 1)";
          hc.outcome = classifyResizeProbe(o, 3072, /*online=*/false, hc.detail);
        } else if (dep.other_param == "mke2fs.size") {
          hc.description = "grow past the creation size";
          hc.outcome = classifyResizeProbe(baseMkfs(), 3072, /*online=*/false, hc.detail);
        } else if (dep.other_param == "mke2fs.blocksize") {
          MkfsOptions o = baseMkfs();
          hc.description = "resize with a non-default block size";
          hc.outcome = classifyResizeProbe(o, 3072, /*online=*/false, hc.detail);
        } else if (dep.other_param == "mke2fs.label") {
          MkfsOptions o = baseMkfs();
          o.label = "scratch";
          hc.description = "resize a labelled filesystem";
          hc.outcome = classifyResizeProbe(o, 3072, /*online=*/false, hc.detail);
        } else {
          hc.description = "behavioural probe for " + dep.summary();
          hc.outcome = HandleOutcome::NotApplicable;
          hc.detail = "no simulator probe for this pair";
        }
        break;
      }
    }

    if (hc.description.empty()) hc.description = dep.summary();
    if (hc.outcome == HandleOutcome::NotApplicable && hc.detail.empty()) {
      hc.detail = "parameter not modelled by the simulator";
    }
    report.cases.push_back(std::move(hc));
  }
  FSDEP_LOG_INFO("conhandleck", "%zu case(s): %s", report.cases.size(),
                 report.summary().c_str());
  return report;
}

HandleCheckReport runCorpusHandleCheck() {
  const corpus::Table5Result result = corpus::runTable5();
  return runHandleCheck(result.unique_deps);
}

}  // namespace fsdep::tools
