// campaign: the ConHandleCk/ConBugCk testing loop.
//
// Set-up runs Table 5 (intra, as `fsdep campaign` does) for the
// dependencies that steer the configuration sampler. One operation is a
// whole runMatrixCampaign at the CLI defaults for the seed: 24 sampled
// configurations x 6 ops x crash/fault schedules, dedup and ddmin
// minimization. No corpus is persisted. fsim and the tools layer do
// nearly all the work here, so it is the "no change" workload for
// analysis-side optimizations.
//
// Checks: every campaign of the run renders the same report as the
// first, and all committed corpus/campaign/*.json reproducers appear
// among the seed-42 reproducers with the same op, outcome and digest.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "corpus/pipeline.h"
#include "fsim/digest.h"
#include "fsim/mkfs.h"
#include "fsim/mount.h"
#include "support/thread_pool.h"
#include "tools/campaign.h"
#include "workloads.h"

namespace fsbench {

using namespace fsdep;

namespace {

constexpr std::uint64_t kCommittedSeed = 42;
/// The Table 5 run takes a few ms; each setup_s sample averages this many.
constexpr std::size_t kSetupsPerSample = 10;

tools::CampaignOptions campaignOptions(std::uint64_t seed, std::size_t jobs) {
  tools::CampaignOptions options;  // the CLI defaults
  options.seed = seed;
  options.jobs = jobs;
  return options;
}

tools::CampaignReport runOnce(std::uint64_t seed, std::size_t jobs,
                              const std::vector<model::Dependency>& deps) {
  Result<tools::CampaignReport> report = tools::runMatrixCampaign(campaignOptions(seed, jobs), deps);
  if (!report.ok()) throw std::runtime_error(report.error().message);
  return std::move(report).take();
}

/// Re-runs every cell of `report` through runCampaignCell across the
/// pool, one span per cell; returns how many disagree with the report.
std::size_t cellSubPass(const tools::CampaignReport& report, std::size_t jobs,
                        LayerMetrics& layers) {
  std::vector<double> cell_ms(report.cells.size(), 0);
  std::vector<char> agrees(report.cells.size(), 1);
  {
    Span section("campaign.cells");
    const std::int64_t parent = section.id();
    ThreadPool::parallelFor(report.cells.size(), jobs, [&](std::size_t i) {
      const tools::CampaignCell& cell = report.cells[i];
      const auto start = Clock::now();
      Result<tools::CellOutcome> outcome = [&] {
        Span span("tools.cell", i, parent);
        return tools::runCampaignCell(report.configs[cell.config_index].config, cell.op,
                                      cell.schedule, report.seed);
      }();
      cell_ms[i] = millisSince(start);
      const tools::CellResult& recorded = report.results[i];
      agrees[i] = recorded.status != tools::CellStatus::Done ||
                  (outcome.ok() && outcome.value().outcome == recorded.outcome &&
                   outcome.value().digest == recorded.digest);
    });
  }
  const std::string note = "runCampaignCell over every cell of the last campaign";
  layers.set("tools.cell_ms_p50", median(cell_ms), cell_ms.size(), note);
  layers.set("tools.cell_ms_p99", percentile(cell_ms, 99), cell_ms.size(), note);
  std::map<std::string, std::pair<double, std::size_t>> busy;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    busy[report.cells[i].op].first += cell_ms[i];
    ++busy[report.cells[i].op].second;
  }
  for (const auto& [op, total] : busy) {
    layers.set("tools.cell_busy_ms." + op, total.first, total.second, note);
  }
  publishPoolMetrics("campaign.cells", "tools.cell", jobs, layers);
  return static_cast<std::size_t>(std::count(agrees.begin(), agrees.end(), 0));
}

/// ddmin again on every reproducer's original schedule.
std::size_t minimizeSubPass(const tools::CampaignReport& report, LayerMetrics& layers) {
  std::uint32_t probes = 0;
  std::size_t mismatches = 0;
  const auto start = Clock::now();
  for (const tools::MinimizedRepro& repro : report.repros) {
    const tools::CampaignCell& cell = report.cells[repro.cell_index];
    const tools::GeneratedConfig& config = report.configs[cell.config_index].config;
    const auto reproduces = [&](const tools::FaultSchedule& candidate) {
      Result<tools::CellOutcome> probe =
          tools::runCampaignCell(config, cell.op, candidate, report.seed);
      return probe.ok() && probe.value().outcome == repro.outcome &&
             probe.value().digest == repro.digest;
    };
    std::uint32_t cell_probes = 0;
    tools::FaultSchedule minimal;
    {
      Span span("tools.minimize", repro.cell_index);
      minimal = tools::minimizeSchedule(cell.schedule, reproduces, cell_probes);
    }
    probes += cell_probes;
    if (!(minimal == repro.schedule)) ++mismatches;
  }
  layers.set("tools.minimize_ms", millisSince(start), report.repros.size(),
             "minimizeSchedule on every reproducer's original schedule");
  layers.set("tools.minimizer_probes", static_cast<double>(report.minimizer_probes),
             report.repros.size(), "CampaignReport; sub-pass probed " + std::to_string(probes));
  return mismatches;
}

/// fsim sub-pass: format each sampled configuration, plant a file, and
/// digest the image on a device this harness owns (block counts and
/// digest time are then observable).
void fsimSubPass(const tools::CampaignReport& report, LayerMetrics& layers) {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::vector<double> digest_us;
  for (const tools::SampledConfig& sampled : report.configs) {
    const tools::GeneratedConfig& config = sampled.config;
    const std::uint32_t bs = config.mkfs.block_size;
    const bool pow2 = bs >= 512 && bs <= (1u << 16) && (bs & (bs - 1)) == 0;
    const std::uint32_t blocks =
        std::max<std::uint32_t>(8192, std::max(config.mkfs.size_blocks, config.resize_target) + 2048);
    fsim::BlockDevice device(blocks, pow2 ? bs : 1024);
    {
      Span span("fsim.mkfs_mount");
      (void)fsim::MkfsTool::format(device, config.mkfs);
      Result<fsim::MountedFs> mounted = fsim::MountTool::mount(device, config.mount);
      if (mounted.ok()) {
        (void)mounted.value().createFile(6144, 2);
        mounted.value().unmount();
      }
    }
    reads += device.readCount();
    writes += device.writeCount();
    const auto start = Clock::now();
    {
      Span span("fsim.digest");
      (void)fsim::imageStateDigest(device);
    }
    digest_us.push_back(millisSince(start) * 1000);
  }
  const std::string note = "mkfs + mount + one file per sampled config, then imageStateDigest";
  layers.set("fsim.block_reads", static_cast<double>(reads), report.configs.size(), note);
  layers.set("fsim.block_writes", static_cast<double>(writes), report.configs.size(), note);
  layers.set("fsim.digest_us_p50", median(digest_us), digest_us.size(), note);
}

std::vector<CommittedReproKey> loadCommittedRepros(const std::string& dir) {
  std::vector<CommittedReproKey> out;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    Result<json::Value> doc = json::parse(text.str());
    if (!doc.ok() || !doc.value().isObject()) {
      throw std::runtime_error("fsbench: unreadable reproducer " + path.string());
    }
    const json::Object& object = doc.value().asObject();
    const auto field = [&](const char* key) {
      const json::Value* v = object.find(key);
      return v != nullptr && v->isString() ? v->asString() : std::string();
    };
    out.push_back({path.filename().string(), field("op"), field("outcome"), field("digest")});
  }
  return out;
}

}  // namespace

std::vector<std::string> missingCommittedRepros(const std::vector<CommittedReproKey>& committed,
                                                const tools::CampaignReport& report) {
  std::vector<std::string> missing;
  for (const CommittedReproKey& want : committed) {
    bool found = false;
    for (const tools::MinimizedRepro& repro : report.repros) {
      const json::Object doc =
          tools::reproToJson(repro, report.configs[repro.config_index].config, report.seed);
      found = found || (doc.find("op")->asString() == want.op &&
                        doc.find("outcome")->asString() == want.outcome &&
                        doc.find("digest")->asString() == want.digest);
    }
    if (!found) missing.push_back(want.name);
  }
  return missing;
}

void runCampaign(const RunConfig& config, RunResult& result) {
  Tracer& tracer = Tracer::global();
  Window window;
  std::vector<model::Dependency> deps;
  timeSetups(config, kSetupsPerSample, [&] {
    corpus::ComponentCache::global().clear();
    const auto start = Clock::now();
    // Serial: a few-ms run spread over the pool waits on whichever
    // worker the host deschedules, which swamps the set-up time.
    deps = corpus::runTable5({}, nullptr, {1}).unique_deps;
    return secondsBetween(start, Clock::now());
  }, window);
  Report::fact("deps", std::to_string(deps.size()) + " Table 5 dependencies steer the sampler");

  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::uint64_t first_digest = 0;
  std::optional<tools::CampaignReport> last;
  const double steal_start = stolenCpuSeconds();
  const auto window_start = Clock::now();
  const double half = config.seconds / 2;
  for (std::uint64_t op = 0;; ++op) {
    const double elapsed = secondsBetween(window_start, Clock::now());
    if (elapsed >= config.seconds && op >= 2) break;
    const bool traced = config.trace && elapsed >= half;
    if (traced) tracer.setEnabled(true);
    ++result.attempted;
    const double cpu_start = processCpuSeconds();
    const auto start = Clock::now();
    try {
      Span span("campaign.run", op);
      last = runOnce(config.seed, config.jobs, deps);
    } catch (const std::exception& e) {
      ++result.failed;
      std::printf("campaign %llu failed: %s\n", static_cast<unsigned long long>(op), e.what());
      continue;
    }
    const double ms = millisSince(start);
    window.op_cpu_ms.push_back((processCpuSeconds() - cpu_start) * 1000);
    const std::uint64_t digest = fnv1a(last->renderText());
    if (result.attempted == 1) {
      first_digest = digest;
    } else if (digest != first_digest) {
      ++result.failed;
      std::printf("campaign %llu: report digest %s differs from the first campaign\n",
                  static_cast<unsigned long long>(op), hex64(digest).c_str());
    }
    (traced ? traced_ms : untraced_ms).push_back(ms);
    window.op_ms.push_back(ms);
    window.computed_ms.push_back(ms);
    window.items += last->cells.size();
    window.busy_s += ms / 1000;
  }
  tracer.setEnabled(false);
  const double rss = peakRssMb();
  window.stolen_s = stolenCpuSeconds() - steal_start;
  if (!last) throw std::runtime_error("fsbench: no campaign completed");
  Report::fact("campaign", last->summary());
  result.check(result.failed == 0,
               "every campaign renders the first campaign's report (digest " +
                   hex64(first_digest) + ")");

  if (!config.trace) {
    reportEndToEnd(window, rss,
                   {"cells_per_s", "campaign_s_p50 (in ms)", "campaign_ms",
                    "every campaign computes"},
                   result);
  } else {
    LayerMetrics layers;
    tracer.setEnabled(true);
    std::vector<double> confgen_ms;
    for (int i = 0; i < 5; ++i) {
      const auto start = Clock::now();
      Span span("tools.confgen");
      (void)tools::sampleConfigMatrix({true, true, campaignOptions(0, 0).max_configs}, deps);
      confgen_ms.push_back(millisSince(start));
    }
    layers.set("tools.confgen_ms", median(confgen_ms), confgen_ms.size(),
               "sampleConfigMatrix at the campaign's defaults");
    const std::size_t cell_mismatches = cellSubPass(*last, config.jobs, layers);
    const std::size_t ddmin_mismatches = minimizeSubPass(*last, layers);
    fsimSubPass(*last, layers);
    tracer.setEnabled(false);
    result.check(cell_mismatches == 0, "every re-run cell matches the campaign's outcome (" +
                                           std::to_string(cell_mismatches) + " mismatch(es))");
    result.check(ddmin_mismatches == 0, "every re-minimized schedule matches (" +
                                            std::to_string(ddmin_mismatches) +
                                            " mismatch(es))");
    std::uint64_t done = 0;
    for (const tools::CellResult& r : last->results) done += r.status == tools::CellStatus::Done;
    layers.set("tools.dedup_ratio",
               done > 0 ? static_cast<double>(last->dedup_hits) / static_cast<double>(done) : 0,
               done, "dedup hits / done cells");
    layers.set("tools.unique_outcomes", static_cast<double>(last->unique_outcomes), 1,
               "CampaignReport");
    layers.set("tools.failed_cells", static_cast<double>(last->totalFailed()), 1,
               "CampaignReport");
    reportTraceOverhead(untraced_ms, traced_ms, config, layers);
    layers.emit(result.report);
  }

  // The committed regression corpus came from the seed-42 campaign.
  const tools::CampaignReport committed_run =
      config.seed == kCommittedSeed ? *last : runOnce(kCommittedSeed, config.jobs, deps);
  const std::vector<CommittedReproKey> committed =
      loadCommittedRepros(config.root + "/corpus/campaign");
  const std::vector<std::string> missing = missingCommittedRepros(committed, committed_run);
  result.check(!committed.empty() && missing.empty(),
               std::to_string(committed.size() - missing.size()) + "/" +
                   std::to_string(committed.size()) +
                   " committed reproducers found among the seed-42 reproducers" +
                   (missing.empty() ? "" : "; missing " + missing.front()));
}

}  // namespace fsbench
