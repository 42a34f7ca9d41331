// Regression guard: every reproducer committed under corpus/campaign/
// must still replay to its recorded outcome class and state digest.
// A digest drift here means the simulator's post-recovery state changed
// for a configuration the campaign already flagged — exactly the kind
// of silent behaviour shift this corpus exists to catch.
#include <gtest/gtest.h>

#include "tools/campaign.h"

#include <filesystem>
#include <fstream>
#include <string>

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
