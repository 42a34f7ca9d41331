#include "corpus/corpus.h"

#include "corpus/amplify.h"
#include "corpus/sources_internal.h"

namespace fsdep::corpus {

std::vector<std::string> componentNames() {
  return {"mke2fs", "mount", "ext4", "e4defrag", "resize2fs", "e2fsck"};
}

std::vector<std::string> xfsComponentNames() { return {"mkfs_xfs", "xfs", "xfs_growfs"}; }

std::vector<std::string> btrfsComponentNames() {
  return {"mkfs_btrfs", "btrfs", "btrfs_balance"};
}

bool isKernelComponent(std::string_view component) {
  return component == "ext4" || component == "xfs" || component == "btrfs";
}

std::string_view componentSource(std::string_view component) {
  if (component == "mke2fs") return kMke2fsSource;
  if (component == "mount") return kMountSource;
  if (component == "ext4") return kExt4Source;
  if (component == "e4defrag") return kE4defragSource;
  if (component == "resize2fs") return kResize2fsSource;
  if (component == "e2fsck") return kE2fsckSource;
  if (component == "mkfs_xfs") return kMkfsXfsSource;
  if (component == "xfs") return kXfsKernelSource;
  if (component == "xfs_growfs") return kXfsGrowfsSource;
  if (component == "mkfs_btrfs") return kMkfsBtrfsSource;
  if (component == "btrfs") return kBtrfsKernelSource;
  if (component == "btrfs_balance") return kBtrfsBalanceSource;
  if (const auto amp = amplifiedSource(component)) return *amp;
  return {};
}

std::optional<std::string> headerSource(std::string_view name) {
  if (name == "ext4_fs.h") return std::string(kExt4FsHeader);
  if (name == "fsdep_libc.h") return std::string(kLibcHeader);
  if (name == "xfs_fs.h") return std::string(kXfsFsHeader);
  if (name == "btrfs_fs.h") return std::string(kBtrfsFsHeader);
  return amplifiedHeader(name);
}

extract::ExtractOptions extractOptions() {
  extract::ExtractOptions options;
  options.metadata_owner = "ext4";
  options.parser_types = {
      {"parse_num", "integer"},
      {"parse_size", "size"},
  };
  options.error_functions = {"usage", "fatal_error", "com_err", "exit"};
  options.enable_bridging = true;
  return options;
}

}  // namespace fsdep::corpus
