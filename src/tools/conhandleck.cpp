#include "tools/conhandleck.h"

#include <optional>

#include "corpus/pipeline.h"
#include "fsim/fsck.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "fsim/resize.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "tools/confgen/confgen.h"

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

/// A device formatted under `config`, or nullopt when mkfs refuses it.
std::optional<BlockDevice> formatted(const GeneratedConfig& config) {
  BlockDevice device(deviceBlocksFor(config), deviceBlockSizeFor(config));
  if (!MkfsTool::format(device, config.mkfs).ok()) return std::nullopt;
  return device;
}

/// Runs mkfs with the given (possibly invalid) configuration and classifies.
HandleOutcome classifyMkfs(const GeneratedConfig& config, std::string& detail) {
  BlockDevice device(deviceBlocksFor(config), deviceBlockSizeFor(config));
  const Result<Superblock> result = MkfsTool::format(device, config.mkfs);
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
HandleOutcome classifyMount(const GeneratedConfig& config, std::string& detail) {
  std::optional<BlockDevice> device = formatted(config);
  if (!device) {
    detail = "baseline image could not be created";
    return HandleOutcome::NotApplicable;
  }
  Result<MountedFs> mounted = MountTool::mount(*device, config.mount);
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

/// The mke2fs or mount probe, whichever tool `component` configures.
HandleOutcome classifyTool(const std::string& component, const GeneratedConfig& config,
                           std::string& detail) {
  return component == "mount" ? classifyMount(config, detail) : classifyMkfs(config, detail);
}

/// Corrupts one superblock field on a valid image, then mounts.
HandleOutcome classifyFieldViolation(const std::string& field, std::int64_t value,
                                     std::string& detail) {
  std::optional<BlockDevice> device = formatted(baselineConfig());
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
HandleOutcome classifyResizeProbe(const GeneratedConfig& config, std::uint32_t new_size,
                                  bool online, std::string& detail) {
  std::optional<BlockDevice> device = formatted(config);
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

/// The inode_ratio probe formats the whole of a 2048-block, 4 KiB
/// device: the file system size follows from the device, not from a
/// size option.
HandleOutcome classifyInodeRatioProbe(std::string& detail) {
  GeneratedConfig config = baselineConfig();
  setParam(config, "mke2fs.blocksize", 4096);
  setParam(config, "mke2fs.size", 0);
  setParam(config, "mke2fs.blocks_per_group", 0);
  setParam(config, "mke2fs.inode_ratio", 2048);  // < blocksize
  BlockDevice device(2048, 4096);
  const Result<Superblock> r = MkfsTool::format(device, config.mkfs);
  if (!r.ok()) {
    detail = r.error().message;
    return HandleOutcome::RejectedGracefully;
  }
  detail = "accepted";
  return HandleOutcome::SilentAccept;
}

}  // namespace

HandleCheckReport runHandleCheck(const std::vector<Dependency>& deps) {
  obs::Span span("conhandleck", "handle-check");
  HandleCheckReport report;

  for (const Dependency& dep : deps) {
    HandleCase hc;
    hc.dependency_id = dep.id;

    const std::string component = componentOf(dep.param);
    // Every probe starts from the baseline: 1 KiB blocks, 2048 blocks,
    // default mount options.
    GeneratedConfig config = baselineConfig();

    switch (dep.kind) {
      case DepKind::SdValueRange: {
        // Violate by stepping outside a bound.
        std::int64_t bad_value = dep.high ? *dep.high + 1 : (dep.low ? *dep.low - 1 : -1);
        if (dep.op == ConstraintOp::PowerOfTwo) bad_value = 3000;  // not a power of two
        if (dep.op == ConstraintOp::MultipleOf && dep.low) bad_value = *dep.low + 1;
        hc.description = dep.param + " = " + std::to_string(bad_value);
        if (component == "ext4") {
          hc.outcome = classifyFieldViolation(nameOf(dep.param), bad_value, hc.detail);
        } else if (setParam(config, dep.param, bad_value)) {
          hc.outcome = classifyTool(component, config, hc.detail);
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
        const bool enable_other = dep.op == ConstraintOp::Excludes;  // violate
        hc.description = dep.param + " with " + dep.other_param +
                         (enable_other ? " enabled" : " disabled");
        if (dep.param == "resize2fs.online") {
          // CCD-control: online resize without the resize_inode reserve.
          setParam(config, "mke2fs.resize_inode", 0);
          hc.outcome = classifyResizeProbe(config, 3072, /*online=*/true, hc.detail);
          break;
        }
        // Both sides must be switches of the same tool.
        const ParamBinding* param = findParamBinding(dep.param);
        const ParamBinding* other = findParamBinding(dep.other_param);
        if (param == nullptr || other == nullptr || param->on == 0 || other->on == 0 ||
            component != componentOf(dep.other_param)) {
          break;
        }
        param->set(config, param->on);
        other->set(config, enable_other ? other->on : 0);
        if ((param->name == "mke2fs.sparse_super2" || other->name == "mke2fs.sparse_super2") &&
            param->name != "mke2fs.resize_inode" && other->name != "mke2fs.resize_inode") {
          // keep the pair to just the two features under test
          setParam(config, "mke2fs.resize_inode", 0);
        }
        hc.outcome = classifyTool(component, config, hc.detail);
        break;
      }

      case DepKind::CpdValue: {
        // One value per relation that breaks it at the baseline.
        hc.description = "violate " + dep.summary();
        if (dep.param == "mke2fs.inode_size" && dep.other_param == "mke2fs.blocksize") {
          setParam(config, dep.param, 2048);
        } else if (dep.param == "mke2fs.blocks_per_group") {
          setParam(config, dep.param, 16384);  // > 8 * blocksize
        } else if (dep.param == "mke2fs.cluster_size") {
          setParam(config, "mke2fs.bigalloc", 1);
          setParam(config, dep.param, 512);  // < blocksize
        } else if (dep.param == "mount.min_batch_time") {
          setParam(config, dep.param, 30000);
          setParam(config, "mount.max_batch_time", 15000);
        } else if (dep.param == "mke2fs.size") {
          setParam(config, dep.param, 4);  // below the whole-image minimum
        } else if (dep.param == "mke2fs.inode_ratio") {
          hc.outcome = classifyInodeRatioProbe(hc.detail);
          break;
        } else {
          break;
        }
        hc.outcome = classifyTool(component, config, hc.detail);
        break;
      }

      case DepKind::CcdValue: {
        // resize2fs.size >= reserved minimum: shrink below it.
        hc.description = "shrink below the reserved minimum";
        hc.outcome = classifyResizeProbe(config, 16, /*online=*/false, hc.detail);
        break;
      }

      case DepKind::CcdBehavioral: {
        // Boundary probes: exercise the behaviour the dependency gates.
        if (dep.other_param == "mke2fs.sparse_super2") {
          setParam(config, "mke2fs.sparse_super2", 1);
          setParam(config, "mke2fs.resize_inode", 0);
          hc.description = "grow a sparse_super2 filesystem (Figure 1)";
        } else if (dep.other_param == "mke2fs.size") {
          hc.description = "grow past the creation size";
        } else if (dep.other_param == "mke2fs.blocksize") {
          hc.description = "resize with a non-default block size";
        } else if (dep.other_param == "mke2fs.label") {
          config.mkfs.label = "scratch";
          hc.description = "resize a labelled filesystem";
        } else {
          hc.description = "behavioural probe for " + dep.summary();
          hc.outcome = HandleOutcome::NotApplicable;
          hc.detail = "no simulator probe for this pair";
          break;
        }
        hc.outcome = classifyResizeProbe(config, 3072, /*online=*/false, hc.detail);
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
