// Regression guard: every reproducer committed under corpus/campaign/
// must still replay to its recorded outcome class and state digest.
// A digest drift here means the simulator's post-recovery state changed
// for a configuration the campaign already flagged — exactly the kind
// of silent behaviour shift this corpus exists to catch.
#include <gtest/gtest.h>

#include "tools/campaign.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>

#include "json/json.h"

#ifndef FSDEP_CAMPAIGN_CORPUS_DIR
#error "FSDEP_CAMPAIGN_CORPUS_DIR must point at the committed corpus"
#endif

namespace fsdep::tools {
namespace {

TEST(CampaignCorpus, CommittedReprosStillReplay) {
  ASSERT_TRUE(std::filesystem::is_directory(FSDEP_CAMPAIGN_CORPUS_DIR));
  const Result<ReplayReport> replay = replayCampaignCorpus(FSDEP_CAMPAIGN_CORPUS_DIR);
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  const ReplayReport& report = replay.value();
  ASSERT_FALSE(report.cases.empty()) << "committed corpus is empty";
  EXPECT_TRUE(report.allMatch()) << report.summary();
  for (const ReplayCase& c : report.cases) {
    EXPECT_TRUE(c.outcome_match) << c.file << ": " << c.detail;
    EXPECT_TRUE(c.digest_match) << c.file << " digest drifted";
    // The seed corpus holds the paper's headline failure: silent
    // corruption out of the buggy (resize_inode-less) online resize.
    EXPECT_EQ(c.recorded, CrashOutcome::SilentCorruption) << c.file;
    EXPECT_EQ(c.op, "resize-buggy") << c.file;
  }
}

/// The first committed reproducer, parsed.
json::Value firstCommittedRepro() {
  std::filesystem::path first;
  for (const auto& entry : std::filesystem::directory_iterator(FSDEP_CAMPAIGN_CORPUS_DIR)) {
    if (first.empty() || entry.path() < first) first = entry.path();
  }
  std::ifstream in(first);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  Result<json::Value> doc = json::parse(text);
  EXPECT_TRUE(doc.ok()) << first;
  return doc.ok() ? std::move(doc).take() : json::Value();
}

TEST(CampaignCorpus, ReplayedSizesNearTwoToTheThirtySecondGiveStructuredOutcomes) {
  // Both sizes come from the replayed file. The device is sized in 64
  // bits and allocates only what the tools write, and the tools refuse
  // the geometry. resize refuses a 2^31-block target inside the op under
  // test, so the replay classifies an outcome.
  json::Value doc = firstCommittedRepro();
  doc.asObject()["config"].asObject()["resize_target"] = std::uint64_t{0x80000000u};
  const Result<ReplayCase> resized = replayCorpusDocument(doc, "resize_target.json");
  ASSERT_TRUE(resized.ok()) << resized.error().message;
  EXPECT_FALSE(resized.value().detail.empty());

  // mkfs refuses a 2^32 - 1 block file system in the set-up: the op
  // never runs, and the replay reports the file and mkfs's error instead
  // of an outcome of an op run on a blank device.
  doc = firstCommittedRepro();
  doc.asObject()["config"].asObject()["mkfs"].asObject()["size_blocks"] =
      std::uint64_t{0xFFFFFFFFu};
  const Result<ReplayCase> formatted = replayCorpusDocument(doc, "size_blocks.json");
  ASSERT_FALSE(formatted.ok()) << "replayed as " << crashOutcomeName(formatted.value().replayed);
  EXPECT_EQ(formatted.error().message.rfind("size_blocks.json: ", 0), 0u)
      << formatted.error().message;
  EXPECT_NE(formatted.error().message.find("mkfs: too many block groups"), std::string::npos)
      << formatted.error().message;
}

TEST(CampaignCorpus, ReplayRejectsAValueThatDoesNotFitItsField) {
  json::Value doc = firstCommittedRepro();
  doc.asObject()["config"].asObject()["resize_target"] = std::uint64_t{4294967296u};
  const Result<ReplayCase> replayed = replayCorpusDocument(doc, "too-big.json");
  ASSERT_FALSE(replayed.ok());
  EXPECT_NE(replayed.error().message.find("resize_target"), std::string::npos)
      << replayed.error().message;
}

TEST(CampaignCorpus, ReplayRejectsMissingDirectory) {
  EXPECT_FALSE(replayCampaignCorpus("/nonexistent/fsdep-corpus").ok());
}

TEST(CampaignCorpus, ReplayOfADeeplyNestedFileNamesTheFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fsdep_campaign_deep_json_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "deep.json").string();
  std::ofstream(file) << std::string(200000, '[');
  const Result<ReplayReport> replay = replayCampaignCorpus(dir.string());
  ASSERT_FALSE(replay.ok());
  EXPECT_NE(replay.error().message.find(file), std::string::npos) << replay.error().message;
  EXPECT_NE(replay.error().message.find("nesting too deep"), std::string::npos)
      << replay.error().message;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fsdep::tools
