// The three fsbench workloads and what they share: the run
// configuration, the end-to-end window every workload measures, and
// the correctness bookkeeping that feeds `attempted`/`failed`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "tools/campaign.h"

namespace fsbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root;      ///< checkout root (holds corpus/campaign)
  std::string work_dir;  ///< scratch directory inside the checkout
  std::size_t jobs = 4;  ///< pipeline workers (the container's nproc)
};

/// setup_s samples per untraced run; setup_s is their median.
inline constexpr std::size_t kSetupSamples = 21;

/// Correctness bookkeeping and the metrics of one run.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report report;

  /// Prints a CHECK line; a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// What the untraced run measures; every workload fills the same shape.
/// An "operation" is one amplify pass, one serve request or one whole
/// campaign; "items" are components, requests or campaign cells.
struct Window {
  std::vector<double> setup_s;      ///< one entry per set-up repeat
  std::vector<double> op_ms;        ///< every operation's latency
  std::vector<double> op_cpu_ms;    ///< process CPU time per operation, where one runs at a time
  std::vector<double> computed_ms;  ///< operations that computed their answer
  /// Wall time spent in operations: the sum of operation times where one
  /// runs at a time (harness checks between them excluded), the whole
  /// window for the closed loop. throughput_per_s = items / busy_s.
  double busy_s = 0;
  std::uint64_t items = 0;          ///< items completed in the window
  double stolen_s = 0;              ///< host steal over the window (all CPUs)
};

/// Fills window.setup_s with kSetupSamples samples (one in a traced run),
/// each the mean of `per_sample` consecutive set-ups, so a set-up of a
/// few milliseconds is timed over a block long enough to be steady.
/// `setup_once` does one set-up and returns the seconds it took.
void timeSetups(const RunConfig& config, std::size_t per_sample,
                const std::function<double()>& setup_once, Window& window);

/// Names the end-to-end metrics carry for one workload in the human
/// output (the result line uses the workload-neutral names).
struct EndToEndAliases {
  const char* throughput;  ///< e.g. "components_per_s"
  const char* p50;         ///< e.g. "pass_ms_p50"
  const char* tail;        ///< e.g. "pass_ms" (the percentile is appended)
  const char* computed;    ///< e.g. "computed_us_p50"
};

/// The percentile latency_ms_tail is gated at. Higher tails are printed
/// (the percentile rule's full ladder) but swing with host scheduling
/// noise far more than code changes move them.
inline constexpr double kGatedTail = 90;

/// Adds setup_s, peak_rss_mb, throughput_per_s, latency_ms_p50,
/// latency_ms_tail and computed_ms_p50 to the report.
void reportEndToEnd(const Window& window, double peak_rss_mb, const EndToEndAliases& aliases,
                    RunResult& result);

/// Traced-run epilogue: the tracing overhead (traced vs untraced p50 of
/// the same run's two halves), the span count, and the span dump.
void reportTraceOverhead(const std::vector<double>& untraced_op_ms,
                         const std::vector<double>& traced_op_ms, const RunConfig& config,
                         LayerMetrics& layers);

/// FNV-1a of the dependencies' JSON serialization, with the amplifier's
/// per-process generation number removed from component names: the
/// output identity the amplify-cold checks compare.
std::uint64_t dependencyDigest(const std::vector<fsdep::model::Dependency>& deps);

/// A committed campaign reproducer's identity: file name, op, outcome
/// and post-recovery digest ("0x..." as the corpus files store it).
struct CommittedReproKey {
  std::string name;
  std::string op;
  std::string outcome;
  std::string digest;
};

/// Names of the committed reproducers with no (op, outcome, digest)
/// match among `report`'s minimized reproducers.
std::vector<std::string> missingCommittedRepros(const std::vector<CommittedReproKey>& committed,
                                                const fsdep::tools::CampaignReport& report);

void runAmplifyCold(const RunConfig& config, RunResult& result);
void runServeMixed(const RunConfig& config, RunResult& result);
void runCampaign(const RunConfig& config, RunResult& result);

/// Harness self-tests; returns the number of failures.
int runSelfTests();

}  // namespace fsbench
