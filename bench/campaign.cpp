// Campaign engine benchmark: runs a bounded crash × fault × config
// campaign at --jobs 1 and at full parallelism and reports throughput
// (cells/sec), the dedup ratio (how much work the canonical state hash
// collapses into equivalence classes), and the minimizer's probe cost.
// One campaign takes tens of milliseconds, too short to time once, so
// each side repeats it until kMinSeconds have elapsed and reports
// cells/sec over all repetitions (`seconds` is the mean per campaign).
// With an output path argument it also emits BENCH_campaign.json for
// scripts/bench_compare.sh.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "json/json.h"
#include "tools/campaign.h"

using namespace fsdep;
using namespace fsdep::tools;

namespace {

constexpr double kMinSeconds = 1.0;

struct RunStats {
  std::size_t jobs = 0;
  std::size_t cells = 0;
  std::size_t repetitions = 0;
  double seconds = 0.0;  ///< mean wall time of one campaign
  double cells_per_sec = 0.0;
  double dedup_ratio = 0.0;  ///< duplicate cells / Done cells
  std::uint64_t unique_outcomes = 0;
  std::uint64_t minimizer_probes = 0;
};

CampaignOptions benchOptions(std::size_t jobs) {
  CampaignOptions options;
  options.seed = 42;
  options.ops = {"mkfs", "mount", "resize-buggy", "tune"};
  options.max_configs = 8;
  options.max_crash_points = 3;
  options.max_double_faults = 2;
  options.jobs = jobs;
  return options;
}

bool runRepeated(std::size_t jobs, RunStats& stats) {
  std::size_t repetitions = 0;
  double elapsed = 0.0;
  CampaignReport report;
  while (elapsed < kMinSeconds) {
    const auto start = std::chrono::steady_clock::now();
    Result<CampaignReport> result = runMatrixCampaign(benchOptions(jobs), {});
    elapsed += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.error().message.c_str());
      return false;
    }
    report = std::move(result).take();
    ++repetitions;
  }
  const std::size_t done = report.cells.size() - report.totalFailed();
  stats.jobs = jobs;
  stats.cells = report.cells.size();
  stats.repetitions = repetitions;
  stats.seconds = elapsed / static_cast<double>(repetitions);
  stats.cells_per_sec = static_cast<double>(report.cells.size() * repetitions) / elapsed;
  stats.dedup_ratio = done > 0 ? static_cast<double>(report.dedup_hits) / done : 0.0;
  stats.unique_outcomes = report.unique_outcomes;
  stats.minimizer_probes = report.minimizer_probes;
  return true;
}

json::Object statsToJson(const RunStats& stats) {
  json::Object o;
  o["jobs"] = json::Value(static_cast<std::uint64_t>(stats.jobs));
  o["cells"] = json::Value(static_cast<std::uint64_t>(stats.cells));
  o["repetitions"] = json::Value(static_cast<std::uint64_t>(stats.repetitions));
  o["seconds"] = json::Value(stats.seconds);
  o["cells_per_sec"] = json::Value(stats.cells_per_sec);
  o["dedup_ratio"] = json::Value(stats.dedup_ratio);
  o["unique_outcomes"] = json::Value(stats.unique_outcomes);
  o["minimizer_probes"] = json::Value(stats.minimizer_probes);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t wide = hw > 1 ? hw : 4;

  std::puts("Campaign engine throughput: bounded crash x fault x config matrix");
  std::puts("(4 ops x 8 configs, 3 crash points + 2 double faults + control each)\n");

  RunStats serial;
  RunStats parallel;
  if (!runRepeated(1, serial) || !runRepeated(wide, parallel)) return 1;

  std::printf("%-8s %6s %5s %8s %11s %11s %7s %7s\n", "mode", "cells", "reps", "sec",
              "cells/sec", "dedup", "unique", "probes");
  for (const RunStats* s : {&serial, &parallel}) {
    std::printf("jobs=%-3zu %6zu %5zu %8.4f %11.1f %10.1f%% %7llu %7llu\n", s->jobs, s->cells,
                s->repetitions, s->seconds, s->cells_per_sec, s->dedup_ratio * 100.0,
                static_cast<unsigned long long>(s->unique_outcomes),
                static_cast<unsigned long long>(s->minimizer_probes));
  }
  const double speedup =
      serial.seconds > 0 && parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0.0;
  std::printf("\nspeedup jobs=1 -> jobs=%zu: %.2fx\n", wide, speedup);
  std::printf("dedup collapses %zu cells into %llu unique outcome classes\n", serial.cells,
              static_cast<unsigned long long>(serial.unique_outcomes));

  if (argc > 1) {
    json::Object doc;
    doc["bench"] = json::Value(std::string("campaign"));
    doc["serial"] = json::Value(statsToJson(serial));
    doc["parallel"] = json::Value(statsToJson(parallel));
    doc["speedup"] = json::Value(speedup);
    std::ofstream out(argv[1]);
    out << json::writePretty(json::Value(std::move(doc))) << "\n";
    std::printf("wrote %s\n", argv[1]);
  }
  return 0;
}
