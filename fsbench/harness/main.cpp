// fsbench — runs one named fsdep workload for a fixed time and prints
// every metric by name, unit and sample count, then a one-line JSON
// result as the last line of stdout.
//
//   fsbench --workload amplify-cold|serve-mixed|campaign --seed N
//           --seconds S --trace 0|1 --root DIR --work-dir DIR
//   fsbench --selftest
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from spans the harness records around each layer
// call. Exit status: 0 correct, 1 an output check failed, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "support/thread_pool.h"
#include "workloads.h"

namespace fsbench {

void RunResult::check(bool ok, const std::string& what) {
  std::printf("CHECK %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) correct = false;
}

namespace {

/// "90", "99.9": a percentile as it appears in a metric alias.
std::string percentileLabel(double p) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

}  // namespace

void timeSetups(const RunConfig& config, std::size_t per_sample,
                const std::function<double()>& setup_once, Window& window) {
  const std::size_t samples = config.trace ? 1 : kSetupSamples;
  const std::size_t repeats = config.trace ? 1 : per_sample;
  for (std::size_t s = 0; s < samples; ++s) {
    double total_s = 0;
    for (std::size_t i = 0; i < repeats; ++i) total_s += setup_once();
    window.setup_s.push_back(total_s / static_cast<double>(repeats));
  }
  Report::fact("setups", std::to_string(samples) + " sample(s) x " + std::to_string(repeats) +
                             " set-up(s) each, " + formatNumber(percentile(window.setup_s, 0.01)) +
                             " to " + formatNumber(percentile(window.setup_s, 100)) + " s");
}

void reportEndToEnd(const Window& window, double peak_rss_mb, const EndToEndAliases& aliases,
                    RunResult& result) {
  Report& r = result.report;
  const double throughput =
      window.busy_s > 0 ? static_cast<double>(window.items) / window.busy_s : 0;
  const Tail tail = tailOf(window.op_ms, kGatedTail);
  for (const double p : {90.0, 95.0, 99.0, 99.9}) {
    const std::size_t beyond = samplesBeyond(window.op_ms.size(), p);
    if (beyond < 10) break;
    Report::fact(std::string(aliases.tail) + "_p" + percentileLabel(p),
                 formatNumber(percentile(window.op_ms, p)) + " ms (" + std::to_string(beyond) +
                     " sample(s) beyond)");
  }
  Report::fact("host_steal_s", formatNumber(window.stolen_s) +
                                   " CPU-s stolen by the host during the window");
  if (!window.op_cpu_ms.empty()) {
    Report::fact("op_cpu_ms_p50", formatNumber(median(window.op_cpu_ms)) +
                                      " ms of process CPU time per operation (steal excluded)");
  }
  const std::string tail_name = std::string(aliases.tail) + "_p" + percentileLabel(tail.percentile);
  r.add("setup_s", median(window.setup_s), "s", window.setup_s.size(),
        "median of the set-up samples");
  r.add("peak_rss_mb", peak_rss_mb, "MB", 1, "getrusage ru_maxrss after the window");
  r.add("throughput_per_s", throughput, "1/s", window.items,
        std::string(aliases.throughput) + ", items / " + formatNumber(window.busy_s) +
            " s of window wall time");
  r.add("latency_ms_p50", median(window.op_ms), "ms", window.op_ms.size(), aliases.p50);
  r.add("latency_ms_tail", tail.value, "ms", window.op_ms.size(),
        tail_name + ", " + std::to_string(samplesBeyond(window.op_ms.size(), tail.percentile)) +
            " sample(s) beyond" +
            (tail.qualified ? "" : "; fewer than 10 beyond the median, median reported"));
  r.add("computed_ms_p50", median(window.computed_ms), "ms", window.computed_ms.size(),
        aliases.computed);
}

void reportTraceOverhead(const std::vector<double>& untraced_op_ms,
                         const std::vector<double>& traced_op_ms, const RunConfig& config,
                         LayerMetrics& layers) {
  const double off = median(untraced_op_ms);
  const double on = median(traced_op_ms);
  layers.set("harness.trace_overhead_pct", off > 0 ? (on / off - 1.0) * 100.0 : 0,
             traced_op_ms.size(),
             "latency_ms_p50 traced " + formatNumber(on) + " vs untraced " + formatNumber(off) +
                 " (" + std::to_string(untraced_op_ms.size()) + " untraced op(s))");
  const std::vector<SpanRecord> spans = Tracer::global().spans();
  const std::string path = config.work_dir + "/spans-" + config.workload + "-" +
                           std::to_string(config.seed) + ".jsonl";
  const bool written = Tracer::global().writeJsonLines(path);
  layers.set("harness.spans", static_cast<double>(spans.size()), spans.size(),
             (written ? "written to " + path : std::string("span dump failed")) + "; " +
                 std::to_string(Tracer::global().dropped()) + " dropped beyond the cap");
}

}  // namespace fsbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fsbench --workload amplify-cold|serve-mixed|campaign --seed N\n"
               "               --seconds S --trace 0|1 --root DIR --work-dir DIR\n"
               "       fsbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsbench;
  RunConfig config;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--root") {
      config.root = value;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || config.seconds <= 0) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      config.trace = value == "1";
    } else {
      return usage();
    }
  }
  if (selftest) {
    const int failures = runSelfTests();
    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  if (config.root.empty() || config.work_dir.empty()) return usage();

  fsdep::ThreadPool::setGlobalJobs(config.jobs);
  std::printf("fsbench: workload %s, seed %llu, %.0f s, trace %d, %zu worker(s)\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, config.jobs);
  RunResult result;
  try {
    if (config.workload == "amplify-cold") {
      runAmplifyCold(config, result);
    } else if (config.workload == "serve-mixed") {
      runServeMixed(config, result);
    } else if (config.workload == "campaign") {
      runCampaign(config, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsbench: %s\n", e.what());
    return 1;
  }
  Report::fact("error_rate",
               formatNumber(result.attempted > 0 ? static_cast<double>(result.failed) /
                                                      static_cast<double>(result.attempted)
                                                : 0) +
                   " (" + std::to_string(result.failed) + " failed of " +
                   std::to_string(result.attempted) + " attempted)");
  std::printf("%s\n", result.report.resultLine(result.correct, result.attempted, result.failed)
                          .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
