// Campaign engine: explores the crash-point × fault-schedule ×
// configuration matrix at scale. CrashCk hands the cell below every
// crash point of ONE pinned configuration per op; the campaign engine
// hands it a dependency-aware sample of the configuration space
// (tools/confgen: each-used-value + pairwise over the mkfs/tune knobs,
// repaired against the extracted dependency set) and adds multi-fault
// schedules — crash plus transient media errors plus device-death — to
// every sampled configuration.
//
// Robustness is the engine's own core:
//   * outcomes are deduplicated by a canonical post-recovery FS-state
//     hash (fsim::imageStateDigest) — two schedules that strand the
//     user in the same state are one bug, not two;
//   * failing schedules are delta-debugged (ddmin over fault events,
//     re-running every candidate) down to a minimal reproducer;
//   * interesting schedules persist as a versioned on-disk regression
//     corpus (corpus/campaign/*.json) with a replay mode;
//   * a crashed or failed cell marks that cell Failed and the campaign
//     continues, with bounded retry for transient errors;
//   * the whole run is deterministic — the same (seed, matrix, jobs)
//     produces a bit-identical report.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fsim/block_device.h"
#include "json/json.h"
#include "support/result.h"
#include "tools/confgen/confgen.h"
#include "tools/crashck.h"

namespace fsdep::tools {

// --- Fault schedules ---------------------------------------------------

enum class FaultEventKind : std::uint8_t {
  CrashAtWrite,     ///< power loss at the Nth persisted write (torn prefix)
  FailAfterWrites,  ///< device death: writes fail permanently after N
  TransientWrite,   ///< a block's writes fail `failures` times, then heal
  TransientRead,    ///< a block's reads fail `failures` times, then heal
};

/// One fault in a schedule. A schedule is an ordered list of these; the
/// campaign generates single-crash and crash+transient combinations, and
/// ddmin prunes them event-wise.
struct FaultEvent {
  FaultEventKind kind = FaultEventKind::CrashAtWrite;
  std::uint64_t write_index = 0;  ///< CrashAtWrite / FailAfterWrites
  std::uint32_t block = 0;        ///< Transient*
  std::uint32_t failures = 1;     ///< Transient*

  bool operator==(const FaultEvent&) const = default;
  [[nodiscard]] std::string summary() const;
};

using FaultSchedule = std::vector<FaultEvent>;

/// Compiles a schedule into the BlockDevice fault plan (at most one
/// crash and one fail-after event take effect; extras are ignored).
fsim::FaultPlan compileFaultSchedule(const FaultSchedule& schedule, std::uint64_t seed);

/// "control" for the empty schedule, else "crash@12 + transient-write(b3 x1)".
std::string faultScheduleSummary(const FaultSchedule& schedule);

/// A schedule as a reproducer file keeps it. The reader rejects an
/// event whose kind it does not know, a key the event's kind does not
/// carry, and a value that is not an integer its field can hold.
json::Array faultScheduleToJson(const FaultSchedule& schedule);
Result<FaultSchedule> faultScheduleFromJson(const json::Value& value);

// --- Cells -------------------------------------------------------------

/// The operations CrashCk and the campaign torture, each parameterized
/// by a configuration.
std::vector<std::string> campaignOpNames();

/// Persisted writes of the op's fault-free run under `config`. A fault
/// plan's write index counts exactly these, so the op's crash points
/// are 0 .. count-1. Errors (unknown op, a set-up mkfs refuses) are
/// structured.
Result<std::uint64_t> opWriteCount(const GeneratedConfig& config, const std::string& op);

struct CampaignCell {
  std::size_t config_index = 0;
  std::string op;
  FaultSchedule schedule;
};

struct CellOutcome {
  CrashOutcome outcome = CrashOutcome::Recovered;
  std::uint64_t digest = 0;  ///< fsim::imageStateDigest after recovery
  std::string detail;
};

/// Runs one (config, op, schedule) cell on a fresh device: fault-free
/// setup, install the compiled schedule, run the op, reboot, classify
/// (classifyPostCrashImage) and digest the post-recovery state.
/// Deterministic in (config, op, schedule, seed). Errors (unknown op, a
/// set-up mkfs refuses) are structured; exceptions escape only for
/// harness bugs.
Result<CellOutcome> runCampaignCell(const GeneratedConfig& config, const std::string& op,
                                    const FaultSchedule& schedule, std::uint64_t seed);

enum class CellStatus : std::uint8_t {
  Done,    ///< ran to classification
  Failed,  ///< the cell itself crashed or errored, retries exhausted
};
const char* cellStatusName(CellStatus status);

struct CellResult {
  CellStatus status = CellStatus::Done;
  CrashOutcome outcome = CrashOutcome::Recovered;  ///< Done cells only
  std::uint64_t digest = 0;
  std::string detail;
  std::uint32_t attempts = 1;  ///< 1 + transient retries spent
  // Filled by the dedup pass (Done cells only):
  bool duplicate = false;
  std::size_t first_cell = 0;  ///< first cell with the same (op, outcome, digest)
};

/// Shard-failure guard: runs `cell` up to 1 + retries times; a thrown
/// exception is retried (transient-error policy), and when retries are
/// exhausted — or the cell returns a structured error — the result is
/// status Failed with the reason in detail. The campaign never dies
/// because one cell did.
CellResult runCellWithRetry(const std::function<Result<CellOutcome>()>& cell,
                            std::uint32_t retries);

/// The retries the campaign gives a cell that throws.
inline constexpr std::uint32_t kCellRetries = 2;

// --- Minimization ------------------------------------------------------

/// ddmin over fault events: the smallest subsequence of `schedule` for
/// which `reproduces` still holds. `reproduces` must be deterministic;
/// `probes` accumulates how many candidates were re-executed. If even
/// the empty schedule reproduces (the op fails with no faults at all —
/// the Figure 1 completed buggy resize), the minimum is empty.
FaultSchedule minimizeSchedule(const FaultSchedule& schedule,
                               const std::function<bool(const FaultSchedule&)>& reproduces,
                               std::uint32_t& probes);

struct MinimizedRepro {
  std::size_t cell_index = 0;
  std::size_t config_index = 0;
  std::string op;
  FaultSchedule schedule;  ///< minimal, not the original
  CrashOutcome outcome = CrashOutcome::Recovered;
  std::uint64_t digest = 0;
  std::string detail;
  std::uint32_t ddmin_probes = 0;
};

// --- The campaign ------------------------------------------------------

struct CampaignOptions {
  std::uint64_t seed = 42;
  std::vector<std::string> ops;   ///< subset of campaignOpNames(); empty = all
  std::size_t max_configs = 24;   ///< 0 = the full sampled matrix
  std::size_t max_crash_points = 4;   ///< crash cells per (config, op)
  std::size_t max_double_faults = 2;  ///< crash+transient cells per (config, op)
  std::size_t jobs = 0;           ///< 0 = the global --jobs setting
  std::string corpus_dir;         ///< persist minimized repros when non-empty
};

struct CampaignReport {
  std::uint64_t seed = 0;
  std::vector<std::string> ops;
  std::vector<SampledConfig> configs;
  std::vector<CampaignCell> cells;
  std::vector<CellResult> results;   ///< parallel to cells
  std::vector<MinimizedRepro> repros;
  std::uint64_t dedup_hits = 0;
  std::uint64_t unique_outcomes = 0;
  std::uint64_t minimizer_probes = 0;

  [[nodiscard]] int totalOf(CrashOutcome outcome) const;  ///< Done cells
  [[nodiscard]] int totalFailed() const;
  /// "recovered=N needs-repair=N silent-corruption=N data-loss=N failed=N"
  [[nodiscard]] std::string histogram() const;
  [[nodiscard]] std::string summary() const;
  /// The full report; byte-identical for the same (seed, matrix, jobs).
  [[nodiscard]] std::string renderText() const;
  [[nodiscard]] json::Object toJson() const;
};

/// Runs the campaign: sample the matrix, plan schedules per (config,
/// op), execute every cell on the thread pool, dedupe, minimize,
/// persist. `deps` steers the sampler's repair step (pass the Table 5
/// extraction).
Result<CampaignReport> runMatrixCampaign(const CampaignOptions& options,
                                         const std::vector<model::Dependency>& deps);

// --- Regression corpus -------------------------------------------------

inline constexpr int kCampaignCorpusVersion = 1;

json::Object reproToJson(const MinimizedRepro& repro, const GeneratedConfig& config,
                         std::uint64_t seed);

/// Writes every minimized repro as corpus files under `dir` (created if
/// missing): campaign-<op>-<outcome>-<digest>.json. Returns the paths.
Result<std::vector<std::string>> persistCampaignCorpus(const CampaignReport& report,
                                                       const std::string& dir);

struct ReplayCase {
  std::string file;
  std::string op;
  CrashOutcome recorded = CrashOutcome::Recovered;
  CrashOutcome replayed = CrashOutcome::Recovered;
  bool outcome_match = false;
  bool digest_match = false;
  std::string detail;
};

struct ReplayReport {
  std::vector<ReplayCase> cases;
  [[nodiscard]] bool allMatch() const;
  [[nodiscard]] std::string summary() const;
};

/// Re-runs every *.json schedule under `dir` (sorted by file name) and
/// compares the outcome (and state digest) against what was recorded.
Result<ReplayReport> replayCampaignCorpus(const std::string& dir);

/// Replays a single parsed corpus document (exposed for tests).
Result<ReplayCase> replayCorpusDocument(const json::Value& doc, const std::string& file);

// --- CI gating ---------------------------------------------------------

/// Which outcome classes turn a run into a non-zero exit (--fail-on).
struct FailOnSet {
  std::uint8_t outcomes = 0;  ///< bit 1 << CrashOutcome for each outcome named
  bool failed = false;        ///< campaign cells that died (not a CrashOutcome)

  [[nodiscard]] bool matches(CrashOutcome outcome) const {
    return ((outcomes >> static_cast<unsigned>(outcome)) & 1u) != 0;
  }
};

/// The classes --fail-on takes, comma-separated: every outcome key but
/// recovered, then "failed" when `with_failed` (a campaign cell that
/// died; CrashCk has no cells that fail).
std::string failOnClasses(bool with_failed);

/// Parses a comma-separated list of the classes failOnClasses names,
/// e.g. "silent-corruption,data-loss".
Result<FailOnSet> parseFailOn(const std::string& spec, bool with_failed);

}  // namespace fsdep::tools
