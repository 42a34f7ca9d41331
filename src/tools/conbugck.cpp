#include "tools/conbugck.h"

#include <cstdio>

#include "obs/log.h"
#include "obs/trace.h"

#include "fsim/coverage.h"
#include "fsim/defrag.h"
#include "fsim/fsck.h"
#include "fsim/resize.h"

namespace fsdep::tools {

using namespace fsim;

CampaignResult runCampaign(int runs, bool dependency_aware,
                           const std::vector<model::Dependency>& deps, std::uint64_t seed) {
  obs::Span span("conbugck", "campaign");
  span.arg("mode", dependency_aware ? "dep-aware" : "naive");
  ConfigGenerator gen(seed);
  CampaignResult result;
  result.runs = runs;
  const CoverageCollector coverage;

  for (int run = 0; run < runs; ++run) {
    GeneratedConfig config = dependency_aware ? gen.dependencyAwareConfig(deps) : gen.randomConfig();

    // One span per pipeline stage; the device's construction and release
    // stay outside them (they are the campaign span's self time).
    BlockDevice device(deviceBlocksFor(config), deviceBlockSizeFor(config));

    {
      obs::Span stage("conbugck", "mkfs");
      if (!MkfsTool::format(device, config.mkfs).ok()) continue;
    }
    ++result.mkfs_ok;

    Result<MountedFs> mounted = [&] {
      obs::Span stage("conbugck", "mount");
      return MountTool::mount(device, config.mount);
    }();
    if (!mounted.ok()) continue;
    ++result.mount_ok;

    {
      // Drive real work: a few files, some fragmented, then unmount.
      obs::Span stage("conbugck", "files");
      if (!config.mount.read_only) {
        (void)mounted.value().createFile(4096, 0);
        (void)mounted.value().createFile(8192, 1);
        const Result<std::uint32_t> doomed = mounted.value().createFile(2048, 0);
        if (doomed.ok()) (void)mounted.value().removeFile(doomed.value());

        DefragOptions defrag_options;
        (void)DefragTool::run(mounted.value(), device, defrag_options);
      }
      mounted.value().unmount();
    }

    if (config.resize_target != 0) {
      obs::Span stage("conbugck", "resize");
      ResizeOptions ro;
      ro.new_size_blocks = config.resize_target;
      ro.fix_sparse_super2_accounting = true;  // coverage, not bug hunting
      (void)ResizeTool::resize(device, ro);
    }

    obs::Span stage("conbugck", "fsck");
    const Result<FsckReport> fsck = FsckTool::check(device, FsckOptions{.force = true});
    if (fsck.ok()) ++result.pipeline_complete;
  }

  result.coverage_points = coverage.points();
  FSDEP_LOG_INFO("conbugck",
                 "%s campaign: %d run(s), %d past mkfs, %d past mount, %d complete, "
                 "%zu coverage point(s)",
                 dependency_aware ? "dep-aware" : "naive", result.runs, result.mkfs_ok,
                 result.mount_ok, result.pipeline_complete, result.coverage_points.size());
  return result;
}

std::string formatCampaignComparison(const CampaignResult& naive, const CampaignResult& aware) {
  char buf[512];
  std::string out = "ConBugCk configuration campaign (fsim pipeline)\n";
  std::snprintf(buf, sizeof(buf), "%-22s | %10s | %10s\n", "", "naive", "dep-aware");
  out += buf;
  auto row = [&](const char* label, int a, int b) {
    std::snprintf(buf, sizeof(buf), "%-22s | %10d | %10d\n", label, a, b);
    out += buf;
  };
  row("configurations", naive.runs, aware.runs);
  row("past mkfs", naive.mkfs_ok, aware.mkfs_ok);
  row("past mount", naive.mount_ok, aware.mount_ok);
  row("full pipeline", naive.pipeline_complete, aware.pipeline_complete);
  row("coverage points", static_cast<int>(naive.coverage_points.size()),
      static_cast<int>(aware.coverage_points.size()));
  return out;
}

}  // namespace fsdep::tools
