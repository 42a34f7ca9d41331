#include <gtest/gtest.h>

#include <algorithm>

#include "corpus/disk_cache.h"
#include "corpus/pipeline.h"
#include "fsim/fsck.h"
#include "fsim/image.h"
#include "fsim/mkfs.h"
#include "fsim/tune.h"
#include "tools/campaign.h"
#include "tools/conbugck.h"
#include "tools/condocck.h"
#include "tools/conhandleck.h"
#include "tools/crashck.h"
#include "tools/depgraph.h"

#include "golden_digest.h"

namespace fsdep::tools {
namespace {

using model::ConstraintOp;
using model::DepKind;
using model::Dependency;

// --- ConDocCk unit behaviour. ---

Dependency dep(DepKind kind, ConstraintOp op, const std::string& param,
               const std::string& other = "") {
  Dependency d;
  d.kind = kind;
  d.op = op;
  d.param = param;
  d.other_param = other;
  d.id = "dep-" + param;
  return d;
}

corpus::ManualEntry claim(const Dependency& d, const std::string& text) {
  corpus::ManualEntry entry;
  entry.claim = d;
  entry.text = text;
  return entry;
}

TEST(ConDocCk, DetectsUndocumented) {
  const Dependency d = dep(DepKind::CpdControl, ConstraintOp::Excludes, "a.x", "a.y");
  const DocCheckReport report = checkDocumentation({d}, {});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, DocIssueKind::Undocumented);
}

TEST(ConDocCk, AccurateClaimIsNoIssue) {
  const Dependency d = dep(DepKind::CpdControl, ConstraintOp::Excludes, "a.x", "a.y");
  const DocCheckReport report = checkDocumentation({d}, {claim(d, "x excludes y")});
  EXPECT_TRUE(report.issues.empty());
}

TEST(ConDocCk, WrongBoundsAreInaccurate) {
  Dependency code = dep(DepKind::SdValueRange, ConstraintOp::InRange, "a.v");
  code.low = 0;
  code.high = 50;
  Dependency documented = code;
  documented.high = 100;
  const DocCheckReport report = checkDocumentation({code}, {claim(documented, "0 to 100")});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, DocIssueKind::Inaccurate);
}

TEST(ConDocCk, WrongRequiresOrientationIsInaccurate) {
  const Dependency code = dep(DepKind::CpdControl, ConstraintOp::Requires, "a.x", "a.y");
  Dependency documented = dep(DepKind::CpdControl, ConstraintOp::Requires, "a.y", "a.x");
  const DocCheckReport report =
      checkDocumentation({code}, {claim(documented, "y requires x")});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, DocIssueKind::Inaccurate);
}

TEST(ConDocCk, StaleClaimIsReported) {
  const Dependency ghost = dep(DepKind::CpdControl, ConstraintOp::Excludes, "a.old", "a.gone");
  const DocCheckReport report = checkDocumentation({}, {claim(ghost, "old excludes gone")});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, DocIssueKind::Stale);
}

// --- The paper's §4.3 numbers over the corpus. ---

TEST(ConDocCk, CorpusFindsTwelveIssues) {
  const DocCheckReport report = runCorpusDocCheck();
  EXPECT_EQ(report.issues.size(), 12u) << report.summary();
  EXPECT_EQ(report.checked_dependencies, 59u) << "59 true dependencies feed the check";
  EXPECT_EQ(report.countOf(DocIssueKind::Undocumented), 9);
  EXPECT_EQ(report.countOf(DocIssueKind::Inaccurate), 2);
  EXPECT_EQ(report.countOf(DocIssueKind::Stale), 1);
}

TEST(ConDocCk, CorpusFindsThePapersExample) {
  // "there is a cross-parameter dependency in mke2fs specifying that
  //  meta_bg and resize_inode can not be used together, which is missing
  //  from the manual" (§4.3).
  const DocCheckReport report = runCorpusDocCheck();
  bool found = false;
  for (const DocIssue& issue : report.issues) {
    if (issue.kind == DocIssueKind::Undocumented &&
        issue.code_dep.param == "mke2fs.meta_bg" &&
        issue.code_dep.other_param == "mke2fs.resize_inode") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- ConHandleCk. ---

class HandleCheckFixture : public ::testing::Test {
 protected:
  static const HandleCheckReport& report() {
    static const HandleCheckReport kReport = runCorpusHandleCheck();
    return kReport;
  }
};

TEST_F(HandleCheckFixture, ExactlyOneCorruption) {
  EXPECT_EQ(report().countOf(HandleOutcome::Corruption), 1) << report().summary();
}

TEST_F(HandleCheckFixture, TheCorruptionIsFigure1) {
  for (const HandleCase& c : report().cases) {
    if (c.outcome == HandleOutcome::Corruption) {
      EXPECT_NE(c.description.find("sparse_super2"), std::string::npos) << c.description;
    }
  }
}

TEST_F(HandleCheckFixture, MostViolationsAreRejectedGracefully) {
  EXPECT_GT(report().countOf(HandleOutcome::RejectedGracefully), 30);
}

TEST_F(HandleCheckFixture, CoversEveryDependency) {
  EXPECT_EQ(report().cases.size(), 64u);
}

TEST_F(HandleCheckFixture, SilentAcceptsAreKnownGaps) {
  // The simulator's mount deliberately does not validate two persistent
  // fields the kernel corpus checks — ConHandleCk must surface exactly
  // those as silent accepts.
  std::set<std::string> silent;
  for (const HandleCase& c : report().cases) {
    if (c.outcome == HandleOutcome::SilentAccept) silent.insert(c.description);
  }
  EXPECT_EQ(silent.size(), 2u) << report().summary();
}

TEST_F(HandleCheckFixture, EveryCaseIsPinned) {
  // Each of the 64 cases as id, attempted configuration, outcome and
  // tool message, digested. `handleck` prints only the counts and the
  // three notable cases; this pins the rest.
  std::string text;
  for (const HandleCase& c : report().cases) {
    text += c.dependency_id + " | " + c.description + " | " + handleOutcomeName(c.outcome) +
            " | " + c.detail + "\n";
  }
  EXPECT_EQ(golden::hex(corpus::contentDigest(text)), "0x43a5a5f956acfd99") << text;
}

// --- The parameter table ConHandleCk and confgen share. ---

TEST(ParamBindings, EveryRowNamesARegistryParameter) {
  // A mistyped row would silently turn its dependencies "n/a" in
  // ConHandleCk and leave them unrepaired in confgen.
  std::set<std::string_view> seen;
  for (const ParamBinding& binding : paramBindings()) {
    EXPECT_NE(corpus::ecosystem().findParameter(binding.name), nullptr) << binding.name;
    EXPECT_TRUE(seen.insert(binding.name).second) << binding.name << " has two rows";
  }
  EXPECT_EQ(seen.size(), 36u);
}

// --- ConBugCk. ---

TEST(ConBugCk, GeneratorIsDeterministic) {
  ConfigGenerator a(7);
  ConfigGenerator b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextUint(), b.nextUint());
}

TEST(ConBugCk, RepairSatisfiesDependencies) {
  const std::vector<Dependency> deps = corpus::runTable5().unique_deps;
  ConfigGenerator gen(123);
  for (int i = 0; i < 50; ++i) {
    GeneratedConfig config = gen.randomConfig();
    repairConfig(config, deps);
    EXPECT_TRUE(fsim::MkfsTool::validate(config.mkfs, 1ull << 30).empty())
        << "repaired mkfs config " << i << " must satisfy all dependencies";
    const fsim::Superblock fake;  // option checks that need no real sb
    (void)fake;
  }
}

TEST(ConBugCk, RepairedConfigsArePinned) {
  // Seeded random configurations repaired against Table 5, then the
  // whole sampled matrix, each rendered as the campaign's config JSON
  // and digested: every field repair writes is covered, not only the
  // ones a campaign or bugck run happens to reach. Each must also read
  // back to the same bytes, as a replayed reproducer does.
  const std::vector<Dependency> deps = corpus::runTable5().unique_deps;
  const auto rendered = [](const GeneratedConfig& config) {
    const std::string text = json::writeCompact(generatedConfigToJson(config));
    const Result<GeneratedConfig> read = generatedConfigFromJson(json::parse(text).value());
    EXPECT_TRUE(read.ok()) << text << ": " << read.error().message;
    if (read.ok()) {
      EXPECT_EQ(json::writeCompact(generatedConfigToJson(read.value())), text);
    }
    return text;
  };
  std::string text;
  for (const std::uint64_t seed : {1u, 42u, 99u}) {
    ConfigGenerator gen(seed);
    for (int i = 0; i < 200; ++i) {
      GeneratedConfig config = gen.randomConfig();
      repairConfig(config, deps);
      text += rendered(config) + "\n";
    }
  }
  for (const SampledConfig& row : sampleConfigMatrix(SamplingOptions{}, deps)) {
    text += row.origin + " " + rendered(row.config) + "\n";
  }
  EXPECT_EQ(golden::hex(corpus::contentDigest(text)), "0x759bffbc25a59e27");
}

TEST(ConBugCk, DependencyAwareBeatsNaive) {
  const std::vector<Dependency> deps = corpus::runTable5().unique_deps;
  const CampaignResult naive = runCampaign(40, false, deps, 99);
  const CampaignResult aware = runCampaign(40, true, deps, 99);
  EXPECT_GT(aware.mkfs_ok, naive.mkfs_ok);
  EXPECT_GT(aware.pipeline_complete, naive.pipeline_complete);
  EXPECT_GT(aware.coverage_points.size(), naive.coverage_points.size());
}

TEST(ConBugCk, AwareCampaignReachesDeepPoints) {
  const std::vector<Dependency> deps = corpus::runTable5().unique_deps;
  const CampaignResult aware = runCampaign(60, true, deps, 7);
  EXPECT_TRUE(aware.coverage_points.contains("mkfs.done"));
  EXPECT_TRUE(aware.coverage_points.contains("mount.ok"));
  EXPECT_TRUE(aware.coverage_points.contains("umount.ok"));
  EXPECT_TRUE(aware.coverage_points.contains("fsck.full_check"));
  EXPECT_GT(aware.coverage_points.size(), 20u);
}

TEST(ConBugCk, ComparisonReportMentionsBothColumns) {
  CampaignResult naive;
  naive.runs = 10;
  CampaignResult aware;
  aware.runs = 10;
  aware.mkfs_ok = 9;
  const std::string report = formatCampaignComparison(naive, aware);
  EXPECT_NE(report.find("naive"), std::string::npos);
  EXPECT_NE(report.find("dep-aware"), std::string::npos);
}

// --- Post-hoc tune probes. ---

TEST(TuneProbes, QuotaJournalViolationIsNamed) {
  // Dropping the journal of a quota filesystem violates "mke2fs.quota
  // requires mke2fs.has_journal" on a live image, where mkfs's create-time
  // validation cannot help: tune must refuse, name quota, and leave the
  // image as it was.
  fsim::BlockDevice device(8192, 1024);
  fsim::MkfsOptions mkfs;
  mkfs.block_size = 1024;
  mkfs.size_blocks = 2048;
  mkfs.blocks_per_group = 512;
  mkfs.inode_ratio = 8192;
  mkfs.quota = true;
  ASSERT_TRUE(fsim::MkfsTool::format(device, mkfs).ok());
  fsim::TuneOptions tune;
  tune.has_journal = false;
  const Result<fsim::TuneReport> tuned = fsim::TuneTool::tune(device, tune);
  ASSERT_FALSE(tuned.ok());
  EXPECT_NE(tuned.error().message.find("quota"), std::string::npos) << tuned.error().message;
  EXPECT_TRUE(fsim::FsImage(device).loadSuperblock().hasCompat(fsim::kCompatHasJournal));
  const Result<fsim::FsckReport> fsck = fsim::FsckTool::check(device, fsim::FsckOptions{.force = true});
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck.value().isClean()) << fsck.value().summary();
}

// --- Fault mode: every op of the campaign's table crashed at every
// write index (CrashCk). A crash that leaves a clean-looking but wrong
// image, or eats committed data, is a corruption. ---

TEST(FaultMode, BuggyResizeIsTheOnlyCorruption) {
  for (const std::string& op : campaignOpNames()) {
    const Result<CrashOpReport> run = runCrashOp(op, 42);
    ASSERT_TRUE(run.ok()) << op << ": " << run.error().message;
    const CrashOpReport& r = run.value();
    const bool corrupt = r.countOf(CrashOutcome::SilentCorruption) > 0 ||
                         r.countOf(CrashOutcome::DataLoss) > 0;
    EXPECT_EQ(corrupt, op == "resize-buggy") << op << ": " << r.histogram();
  }
}

TEST(FaultMode, CoversTheWholeToolchain) {
  const Result<CrashCkReport> result = runCrashCk(CrashCkOptions{.seed = 42, .ops = {}});
  ASSERT_TRUE(result.ok()) << result.error().message;
  std::vector<std::string> ops;
  for (const CrashOpReport& r : result.value().ops) {
    ops.push_back(r.op);
    // Every write of the fault-free run is a crash point, plus the control.
    EXPECT_GT(r.total_writes, 0u) << r.op;
    EXPECT_EQ(r.points.size(), r.total_writes + 1) << r.op;
  }
  for (const char* expected : {"mkfs", "mount", "resize-buggy", "resize", "defrag", "tune"}) {
    EXPECT_NE(std::find(ops.begin(), ops.end(), expected), ops.end()) << expected;
  }
}

TEST(FaultMode, DeterministicInTheSeed) {
  const Result<CrashCkReport> a = runCrashCk(CrashCkOptions{.seed = 99, .ops = {}});
  const Result<CrashCkReport> b = runCrashCk(CrashCkOptions{.seed = 99, .ops = {}});
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().summary(), b.value().summary());
  ASSERT_EQ(a.value().ops.size(), b.value().ops.size());
  for (std::size_t i = 0; i < a.value().ops.size(); ++i) {
    const CrashOpReport& x = a.value().ops[i];
    const CrashOpReport& y = b.value().ops[i];
    EXPECT_EQ(x.histogram(), y.histogram()) << x.op;
    ASSERT_EQ(x.points.size(), y.points.size()) << x.op;
    for (std::size_t p = 0; p < x.points.size(); ++p) {
      EXPECT_EQ(x.points[p].outcome, y.points[p].outcome) << x.op << " point " << p;
      EXPECT_EQ(x.points[p].detail, y.points[p].detail) << x.op << " point " << p;
    }
  }
}

// --- Dependency graph rendering. ---

TEST(DepGraph, RendersEdgesWithLevelsAndClusters) {
  const Dependency cpd = dep(DepKind::CpdControl, ConstraintOp::Excludes, "mke2fs.a", "mke2fs.b");
  Dependency ccd = dep(DepKind::CcdBehavioral, ConstraintOp::Influences, "resize2fs.x", "mke2fs.a");
  ccd.bridge_field = "sb.f";
  const std::string dot = renderDependencyGraphDot({cpd, ccd});
  EXPECT_NE(dot.find("digraph fsdep"), std::string::npos);
  EXPECT_NE(dot.find("mke2fs_a -> mke2fs_b"), std::string::npos);
  EXPECT_NE(dot.find("color=blue"), std::string::npos);
  EXPECT_NE(dot.find("resize2fs_x -> mke2fs_a"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("via sb.f"), std::string::npos);
  EXPECT_NE(dot.find("cluster_"), std::string::npos);
  EXPECT_NE(dot.find("label=\"mke2fs\""), std::string::npos);
}

TEST(DepGraph, SelfDepsOnlyWhenRequested) {
  Dependency sd = dep(DepKind::SdValueRange, ConstraintOp::InRange, "mke2fs.blocksize");
  const std::string without = renderDependencyGraphDot({sd});
  EXPECT_EQ(without.find("mke2fs_blocksize"), std::string::npos);
  GraphOptions options;
  options.include_self_deps = true;
  const std::string with = renderDependencyGraphDot({sd}, options);
  EXPECT_NE(with.find("mke2fs_blocksize"), std::string::npos);
}

TEST(DepGraph, CorpusGraphIsWellFormed) {
  const std::string dot = renderDependencyGraphDot(corpus::runTable5().unique_deps);
  // Balanced braces and a red (cross-component) edge present.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), std::count(dot.begin(), dot.end(), '}'));
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

}  // namespace
}  // namespace fsdep::tools
