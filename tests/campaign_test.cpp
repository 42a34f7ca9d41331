// Campaign engine: schedule compilation, ddmin minimization, retry
// robustness, outcome dedup, corpus round-trip, and the determinism
// guarantee (same seed/matrix => bit-identical report at any --jobs).
#include <gtest/gtest.h>

#include "tools/campaign.h"

#include "fsim/coverage.h"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace fsdep::tools {
namespace {

using fsim::FaultPlan;

FaultEvent crashAt(std::uint64_t index) {
  FaultEvent event;
  event.kind = FaultEventKind::CrashAtWrite;
  event.write_index = index;
  return event;
}

FaultEvent transientWrite(std::uint32_t block, std::uint32_t failures) {
  FaultEvent event;
  event.kind = FaultEventKind::TransientWrite;
  event.block = block;
  event.failures = failures;
  return event;
}

TEST(FaultScheduleTest, CompilesToDevicePlan) {
  const FaultSchedule schedule = {transientWrite(7, 3), crashAt(12)};
  const FaultPlan plan = compileFaultSchedule(schedule, 99);
  EXPECT_EQ(plan.seed, 99u);
  ASSERT_TRUE(plan.crash_at_write.has_value());
  EXPECT_EQ(*plan.crash_at_write, 12u);
  EXPECT_EQ(plan.torn_mode, fsim::TornMode::Seeded);
  ASSERT_EQ(plan.transients.size(), 1u);
  EXPECT_EQ(plan.transients[0].block, 7u);
  EXPECT_EQ(plan.transients[0].failures, 3u);
  EXPECT_TRUE(plan.transients[0].on_write);
  EXPECT_FALSE(plan.fail_after_writes.has_value());
}

TEST(FaultScheduleTest, SummaryAndControl) {
  EXPECT_EQ(faultScheduleSummary({}), "control");
  EXPECT_EQ(faultScheduleSummary({transientWrite(3, 1), crashAt(12)}),
            "transient-write(b3 x1) + crash@12");
}

TEST(FaultScheduleTest, JsonRoundTrip) {
  FaultSchedule schedule = {crashAt(42), transientWrite(9, 2)};
  FaultEvent dead;
  dead.kind = FaultEventKind::FailAfterWrites;
  dead.write_index = 7;
  schedule.push_back(dead);
  FaultEvent read_fault;
  read_fault.kind = FaultEventKind::TransientRead;
  read_fault.block = 5;
  read_fault.failures = 4;
  schedule.push_back(read_fault);

  const Result<FaultSchedule> round =
      faultScheduleFromJson(json::Value(faultScheduleToJson(schedule)));
  ASSERT_TRUE(round.ok()) << round.error().message;
  EXPECT_EQ(round.value(), schedule);
}

TEST(FaultScheduleTest, RejectsUnknownKind) {
  const Result<json::Value> doc = json::parse(R"([{"kind":"meteor-strike"}])");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(faultScheduleFromJson(doc.value()).ok());
}

TEST(ConfigJsonTest, RoundTripsEveryLayer) {
  GeneratedConfig config = baselineConfig();
  config.mkfs.sparse_super2 = true;
  config.mkfs.resize_inode = false;
  config.mkfs.bigalloc = true;
  config.mkfs.cluster_size = 2048;
  config.mount.data_mode = fsim::DataMode::Writeback;
  config.mount.journal_checksum = true;
  config.tune.max_mount_count = 16;
  config.tune.label = "campaign";
  config.resize_target = 4096;

  const Result<GeneratedConfig> round =
      generatedConfigFromJson(json::Value(generatedConfigToJson(config)));
  ASSERT_TRUE(round.ok()) << round.error().message;
  const GeneratedConfig& r = round.value();
  EXPECT_EQ(r.mkfs.sparse_super2, true);
  EXPECT_EQ(r.mkfs.resize_inode, false);
  EXPECT_EQ(r.mkfs.bigalloc, true);
  EXPECT_EQ(r.mkfs.cluster_size, 2048u);
  EXPECT_EQ(r.mount.data_mode, fsim::DataMode::Writeback);
  EXPECT_EQ(r.mount.journal_checksum, true);
  ASSERT_TRUE(r.tune.max_mount_count.has_value());
  EXPECT_EQ(*r.tune.max_mount_count, 16);
  ASSERT_TRUE(r.tune.label.has_value());
  EXPECT_EQ(*r.tune.label, "campaign");
  EXPECT_EQ(r.resize_target, 4096u);
}

TEST(ConfigJsonTest, RewritesEveryFieldByteForByte) {
  // Every tune field set, so each of the 46 fields writes a key: the
  // 23 mkfs, 14 mount and 8 tune fields, and resize_target.
  GeneratedConfig config = baselineConfig();
  config.tune = {true, false, true, false, true, 16, 128, "every-field"};
  const json::Object doc = generatedConfigToJson(config);
  EXPECT_EQ(doc.find("mkfs")->asObject().size(), 23u);
  EXPECT_EQ(doc.find("mount")->asObject().size(), 14u);
  EXPECT_EQ(doc.find("tune")->asObject().size(), 8u);
  EXPECT_EQ(doc.size(), 4u);

  const Result<GeneratedConfig> round = generatedConfigFromJson(json::Value(doc));
  ASSERT_TRUE(round.ok()) << round.error().message;
  EXPECT_EQ(json::writeCompact(generatedConfigToJson(round.value())), json::writeCompact(doc));
}

TEST(ConfigJsonTest, AMissingKeyKeepsItsDefault) {
  const Result<json::Value> doc = json::parse(R"({"mkfs":{"block_size":2048},"tune":{}})");
  ASSERT_TRUE(doc.ok());
  const Result<GeneratedConfig> config = generatedConfigFromJson(doc.value());
  ASSERT_TRUE(config.ok()) << config.error().message;
  GeneratedConfig expected;
  expected.mkfs.block_size = 2048;
  EXPECT_EQ(json::writeCompact(generatedConfigToJson(config.value())),
            json::writeCompact(generatedConfigToJson(expected)));
}

TEST(MinimizeTest, FindsSingleCulpritEvent) {
  const FaultSchedule schedule = {crashAt(1), transientWrite(7, 3), crashAt(2),
                                  transientWrite(9, 1), crashAt(3), crashAt(4)};
  const auto culprit = [](const FaultSchedule& candidate) {
    for (const FaultEvent& event : candidate) {
      if (event.kind == FaultEventKind::TransientWrite && event.block == 7) return true;
    }
    return false;
  };
  std::uint32_t probes = 0;
  const FaultSchedule minimal = minimizeSchedule(schedule, culprit, probes);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0], transientWrite(7, 3));
  EXPECT_GT(probes, 0u);
}

TEST(MinimizeTest, EmptyScheduleFastPath) {
  // The op fails with no faults at all: minimal reproducer is empty.
  std::uint32_t probes = 0;
  const FaultSchedule minimal = minimizeSchedule(
      {crashAt(1), crashAt(2)}, [](const FaultSchedule&) { return true; }, probes);
  EXPECT_TRUE(minimal.empty());
  EXPECT_EQ(probes, 1u);
}

TEST(MinimizeTest, KeepsPairThatMustCooccur) {
  const FaultSchedule schedule = {crashAt(1), transientWrite(3, 1), crashAt(2),
                                  transientWrite(5, 1)};
  const auto both = [](const FaultSchedule& candidate) {
    bool a = false;
    bool b = false;
    for (const FaultEvent& event : candidate) {
      a |= event.kind == FaultEventKind::TransientWrite && event.block == 3;
      b |= event.kind == FaultEventKind::TransientWrite && event.block == 5;
    }
    return a && b;
  };
  std::uint32_t probes = 0;
  const FaultSchedule minimal = minimizeSchedule(schedule, both, probes);
  EXPECT_EQ(minimal.size(), 2u);
}

TEST(RetryTest, TransientExceptionIsRetried) {
  int calls = 0;
  const CellResult result = runCellWithRetry(
      [&]() -> Result<CellOutcome> {
        if (++calls < 3) throw std::runtime_error("worker lost");
        CellOutcome out;
        out.outcome = CrashOutcome::Recovered;
        out.digest = 0xabc;
        return out;
      },
      /*retries=*/2);
  EXPECT_EQ(result.status, CellStatus::Done);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(result.digest, 0xabcu);
}

TEST(RetryTest, ExhaustedRetriesMarkTheCellFailed) {
  int calls = 0;
  const CellResult result = runCellWithRetry(
      [&]() -> Result<CellOutcome> {
        ++calls;
        throw std::runtime_error("persistent shard failure");
      },
      /*retries=*/2);
  EXPECT_EQ(result.status, CellStatus::Failed);
  EXPECT_EQ(calls, 3);
  EXPECT_NE(result.detail.find("persistent shard failure"), std::string::npos);
}

TEST(RetryTest, StructuredErrorsAreNotRetried) {
  int calls = 0;
  const CellResult result = runCellWithRetry(
      [&]() -> Result<CellOutcome> {
        ++calls;
        return makeError("unknown op");
      },
      /*retries=*/5);
  EXPECT_EQ(result.status, CellStatus::Failed);
  EXPECT_EQ(calls, 1);  // deterministic failure: retry is pointless
}

TEST(CellTest, UnknownOpIsAStructuredError) {
  const Result<CellOutcome> result =
      runCampaignCell(baselineConfig(), "warp-drive", {}, 42);
  EXPECT_FALSE(result.ok());
}

// A configuration mkfs refuses fails every op's set-up: the op would
// otherwise run on a blank device and be classified as a crash outcome.
// The mkfs op has no set-up; its refusal is the op under test.
TEST(CellTest, RefusedSetUpIsAStructuredErrorNotAnOutcome) {
  GeneratedConfig config = baselineConfig();
  config.mkfs.size_blocks = 0xFFFFFFFFu;
  for (const std::string& op : campaignOpNames()) {
    const Result<CellOutcome> cell = runCampaignCell(config, op, {}, 42);
    const Result<std::uint64_t> writes = opWriteCount(config, op);
    if (op == "mkfs") {
      EXPECT_TRUE(cell.ok()) << cell.error().message;
      EXPECT_TRUE(writes.ok()) << writes.error().message;
      continue;
    }
    ASSERT_FALSE(cell.ok()) << op << " classified as " << crashOutcomeName(cell.value().outcome);
    EXPECT_NE(cell.error().message.find("mkfs: too many block groups"), std::string::npos)
        << op << ": " << cell.error().message;
    EXPECT_FALSE(writes.ok()) << op;
  }
}

TEST(CellTest, ControlCellOfBuggyResizeOnSparse2IsSilentCorruption) {
  GeneratedConfig config = baselineConfig();
  config.mkfs.sparse_super2 = true;
  config.mkfs.resize_inode = false;
  const Result<CellOutcome> result = runCampaignCell(config, "resize-buggy", {}, 42);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().outcome, CrashOutcome::SilentCorruption);
  EXPECT_NE(result.value().digest, 0u);
}

TEST(CellTest, SameInputsSameOutcomeAndDigest) {
  GeneratedConfig config = baselineConfig();
  const FaultSchedule schedule = {crashAt(5)};
  const Result<CellOutcome> a = runCampaignCell(config, "mount", schedule, 42);
  const Result<CellOutcome> b = runCampaignCell(config, "mount", schedule, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().outcome, b.value().outcome);
  EXPECT_EQ(a.value().digest, b.value().digest);
}

CampaignOptions smallCampaign() {
  CampaignOptions options;
  options.seed = 42;
  options.ops = {"resize-buggy", "tune"};
  options.max_configs = 4;
  options.max_crash_points = 2;
  options.max_double_faults = 1;
  return options;
}

TEST(CampaignTest, ReportIsByteIdenticalAcrossJobCounts) {
  CampaignOptions serial = smallCampaign();
  serial.jobs = 1;
  CampaignOptions parallel = smallCampaign();
  parallel.jobs = 4;
  const Result<CampaignReport> a = runMatrixCampaign(serial, {});
  const Result<CampaignReport> b = runMatrixCampaign(parallel, {});
  ASSERT_TRUE(a.ok()) << a.error().message;
  ASSERT_TRUE(b.ok()) << b.error().message;
  EXPECT_EQ(a.value().renderText(), b.value().renderText());
  EXPECT_EQ(json::writePretty(json::Value(a.value().toJson())),
            json::writePretty(json::Value(b.value().toJson())));
}

TEST(CampaignTest, DedupIdentifiesRepresentatives) {
  CampaignOptions options = smallCampaign();
  options.jobs = 1;
  const Result<CampaignReport> result = runMatrixCampaign(options, {});
  ASSERT_TRUE(result.ok());
  const CampaignReport& report = result.value();
  ASSERT_EQ(report.results.size(), report.cells.size());
  EXPECT_GT(report.unique_outcomes, 0u);
  EXPECT_GT(report.dedup_hits, 0u);
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const CellResult& cell = report.results[i];
    if (cell.status != CellStatus::Done || !cell.duplicate) continue;
    const CellResult& first = report.results[cell.first_cell];
    EXPECT_LT(cell.first_cell, i);
    EXPECT_FALSE(first.duplicate);
    EXPECT_EQ(first.outcome, cell.outcome);
    EXPECT_EQ(first.digest, cell.digest);
    EXPECT_EQ(report.cells[cell.first_cell].op, report.cells[i].op);
  }
}

TEST(CampaignTest, MinimizerReducesBuggyResizeToAtMostThreeEvents) {
  CampaignOptions options = smallCampaign();
  options.ops = {"resize-buggy"};
  options.jobs = 1;
  const Result<CampaignReport> result = runMatrixCampaign(options, {});
  ASSERT_TRUE(result.ok());
  const CampaignReport& report = result.value();
  bool found_silent = false;
  for (const MinimizedRepro& repro : report.repros) {
    EXPECT_LE(repro.schedule.size(), 3u) << faultScheduleSummary(repro.schedule);
    found_silent |= repro.outcome == CrashOutcome::SilentCorruption;
    // The minimal schedule must still reproduce its recorded class.
    const Result<CellOutcome> replay = runCampaignCell(
        report.configs[repro.config_index].config, repro.op, repro.schedule, options.seed);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value().outcome, repro.outcome);
    EXPECT_EQ(replay.value().digest, repro.digest);
  }
  EXPECT_TRUE(found_silent) << report.summary();
}

TEST(CampaignTest, CorpusPersistsAndReplays) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fsdep_campaign_corpus_test";
  std::filesystem::remove_all(dir);

  CampaignOptions options = smallCampaign();
  options.ops = {"resize-buggy"};
  options.jobs = 1;
  options.corpus_dir = dir.string();
  const Result<CampaignReport> result = runMatrixCampaign(options, {});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().repros.empty());

  const Result<ReplayReport> replay = replayCampaignCorpus(dir.string());
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  EXPECT_EQ(replay.value().cases.size(), result.value().repros.size());
  EXPECT_TRUE(replay.value().allMatch()) << replay.value().summary();
  for (const ReplayCase& c : replay.value().cases) EXPECT_TRUE(c.digest_match) << c.file;
  std::filesystem::remove_all(dir);
}

TEST(CampaignTest, ReplayDetectsTamperedOutcome) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fsdep_campaign_tamper_test";
  std::filesystem::remove_all(dir);

  CampaignOptions options = smallCampaign();
  options.ops = {"resize-buggy"};
  options.jobs = 1;
  options.corpus_dir = dir.string();
  ASSERT_TRUE(runMatrixCampaign(options, {}).ok());

  // Claim a repro recovered; the replay must flag the mismatch.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    const std::string from = "\"outcome\": \"silent-corruption\"";
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), "\"outcome\": \"recovered\"");
    std::ofstream out(entry.path());
    out << text;
    break;
  }
  const Result<ReplayReport> replay = replayCampaignCorpus(dir.string());
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  EXPECT_FALSE(replay.value().allMatch());
  std::filesystem::remove_all(dir);
}

// A run that measures coverage installs a collector on its thread; the
// hits of that thread land in it, and nothing else does.
TEST(CampaignTest, CoverageHitsLandInTheInstallingThreadsCollector) {
  fsim::CoverageCollector collector;
  for (int i = 0; i < 3000; ++i) fsim::coverPoint("test.point." + std::to_string(i % 300));
  EXPECT_EQ(collector.points().size(), 300u);
  EXPECT_TRUE(collector.points().contains("test.point.299"));
  {
    // A nested collector takes the hits while installed, then hands back.
    const fsim::CoverageCollector inner;
    fsim::coverPoint("test.inner");
    EXPECT_EQ(inner.points(), std::set<std::string>{"test.inner"});
  }
  fsim::coverPoint("test.after-inner");
  EXPECT_EQ(collector.points().size(), 301u);
  EXPECT_FALSE(collector.points().contains("test.inner"));
}

// Campaign workers run fsim concurrently with no collector: their hits
// land nowhere, and so do hits made before a collector is installed.
TEST(CampaignTest, CoverageHitsFromOtherThreadsOrWithoutACollectorLandNowhere) {
  fsim::coverPoint("test.before");
  const fsim::CoverageCollector collector;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 2000; ++i) {
        fsim::coverPoint("test.worker." + std::to_string((i * 4 + t) % 3000));
      }
    });
  }
  for (int i = 0; i < 2000; ++i) fsim::coverPoint("test.own." + std::to_string(i % 10));
  for (std::thread& worker : workers) worker.join();
  std::set<std::string> expected;
  for (int i = 0; i < 10; ++i) expected.insert("test.own." + std::to_string(i));
  EXPECT_EQ(collector.points(), expected);
}

TEST(CampaignTest, UnknownOpIsRejected) {
  CampaignOptions options;
  options.ops = {"warp-drive"};
  EXPECT_FALSE(runMatrixCampaign(options, {}).ok());
}

// A reproducer keeps the seed as a JSON integer and replay refuses a
// negative one, so a campaign refuses a seed that would be written as one.
TEST(CampaignTest, SeedAReproducerCannotHoldIsRejected) {
  CampaignOptions options;
  options.seed = std::uint64_t{1} << 63;
  const Result<CampaignReport> run = runMatrixCampaign(options, {});
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.error().message.find("9223372036854775808"), std::string::npos)
      << run.error().message;
}

TEST(FailOnTest, ParsesClassLists) {
  const Result<FailOnSet> set = parseFailOn("silent-corruption,data-loss", true);
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(set.value().failed);
  EXPECT_TRUE(set.value().matches(CrashOutcome::SilentCorruption));
  EXPECT_TRUE(set.value().matches(CrashOutcome::DataLoss));
  EXPECT_FALSE(set.value().matches(CrashOutcome::Recovered));
  EXPECT_FALSE(set.value().matches(CrashOutcome::NeedsRepair));
}

TEST(FailOnTest, AcceptsSpacesAndAllClasses) {
  const Result<FailOnSet> set = parseFailOn(" needs-repair , failed ", true);
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set.value().matches(CrashOutcome::NeedsRepair));
  EXPECT_FALSE(set.value().matches(CrashOutcome::SilentCorruption));
  EXPECT_TRUE(set.value().failed);
}

TEST(FailOnTest, RejectsUnknownAndEmpty) {
  for (const bool with_failed : {false, true}) {
    EXPECT_FALSE(parseFailOn("bogus", with_failed).ok());
    // An outcome, but never a failure.
    EXPECT_FALSE(parseFailOn("recovered", with_failed).ok());
    EXPECT_FALSE(parseFailOn("", with_failed).ok());
    EXPECT_FALSE(parseFailOn(" , ", with_failed).ok());
  }
}

// CrashCk has no cells that fail, so only the campaign takes "failed".
TEST(FailOnTest, FailedIsACampaignClassOnly) {
  const Result<FailOnSet> crashck = parseFailOn("data-loss,failed", false);
  ASSERT_FALSE(crashck.ok());
  EXPECT_EQ(crashck.error().message,
            "unknown --fail-on class 'failed' "
            "(valid: needs-repair, silent-corruption, data-loss)");
  EXPECT_EQ(failOnClasses(true), "needs-repair, silent-corruption, data-loss, failed");
}

}  // namespace
}  // namespace fsdep::tools
