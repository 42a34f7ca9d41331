// The §6 generalization: the unchanged pipeline must extract multi-level
// dependencies from the XFS mini-ecosystem.
#include <gtest/gtest.h>

#include "corpus/pipeline.h"

namespace fsdep::corpus {
namespace {

using model::ConstraintOp;
using model::DepKind;
using model::Dependency;

class XfsFixture : public ::testing::Test {
 protected:
  static const std::vector<Dependency>& deps() {
    static const std::vector<Dependency> kDeps = runScenario(*findScenario("xfs"));
    return kDeps;
  }

  static const Dependency* find(DepKind kind, ConstraintOp op, const std::string& param,
                                const std::string& other = "") {
    Dependency probe;
    probe.kind = kind;
    probe.op = op;
    probe.param = param;
    probe.other_param = other;
    for (const Dependency& d : deps()) {
      if (d.dedupKey() == probe.dedupKey()) return &d;
    }
    return nullptr;
  }
};

TEST_F(XfsFixture, ComponentsParse) {
  // The XFS entry of the table on its own, so a parse failure names this suite.
  const FileSystem* entry = nullptr;
  for (const FileSystem& fs : fileSystems()) {
    if (fs.name == "xfs") entry = &fs;
  }
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->components.size(), 3u);
  for (const Component& component : entry->components) {
    EXPECT_NO_THROW(AnalyzedComponent(component.name, taint::AnalysisOptions{})) << component.name;
  }
}

TEST_F(XfsFixture, ExtractsAllThreeLevels) {
  int sd = 0;
  int cpd = 0;
  int ccd = 0;
  for (const Dependency& d : deps()) {
    switch (d.level()) {
      case model::DepLevel::SelfDependency: ++sd; break;
      case model::DepLevel::CrossParameter: ++cpd; break;
      case model::DepLevel::CrossComponent: ++ccd; break;
    }
  }
  EXPECT_GE(sd, 8);
  EXPECT_GE(cpd, 4);
  EXPECT_GE(ccd, 2);
}

TEST_F(XfsFixture, V5FeatureMatrix) {
  // reflink / rmapbt / bigtime all require the crc (v5) format.
  EXPECT_NE(find(DepKind::CpdControl, ConstraintOp::Requires, "mkfs_xfs.reflink",
                 "mkfs_xfs.crc"),
            nullptr);
  EXPECT_NE(find(DepKind::CpdControl, ConstraintOp::Requires, "mkfs_xfs.rmapbt",
                 "mkfs_xfs.crc"),
            nullptr);
  EXPECT_NE(find(DepKind::CpdControl, ConstraintOp::Requires, "mkfs_xfs.bigtime",
                 "mkfs_xfs.crc"),
            nullptr);
}

TEST_F(XfsFixture, SelfDependencyRanges) {
  const Dependency* blocksize = find(DepKind::SdValueRange, ConstraintOp::InRange,
                                     "mkfs_xfs.blocksize");
  ASSERT_NE(blocksize, nullptr);
  EXPECT_EQ(blocksize->low, 512);
  EXPECT_EQ(blocksize->high, 65536);

  const Dependency* logbufs = find(DepKind::SdValueRange, ConstraintOp::InRange,
                                   "xfs_mount.logbufs");
  ASSERT_NE(logbufs, nullptr);
  EXPECT_EQ(logbufs->low, 2);
  EXPECT_EQ(logbufs->high, 8);
}

TEST_F(XfsFixture, NorecoveryRequiresReadOnly) {
  EXPECT_NE(find(DepKind::CpdControl, ConstraintOp::Requires, "xfs_mount.norecovery",
                 "xfs_mount.ro"),
            nullptr);
}

TEST_F(XfsFixture, GrowfsNoShrinkIsCrossComponent) {
  // xfs_growfs refuses targets below sb_dblocks, which mkfs.xfs wrote
  // from its size argument: a CCD through the superblock bridge. (The
  // bridge field reported may be sb_dblocks or sb_agblocks: growfs also
  // writes sb_dblocks, so the kernel's dblocks>=agblocks invariant
  // relates the same parameter pair and deduplicates with this one.)
  const Dependency* no_shrink = find(DepKind::CcdValue, ConstraintOp::Ge, "xfs_growfs.size",
                                     "mkfs_xfs.size");
  ASSERT_NE(no_shrink, nullptr);
  EXPECT_TRUE(no_shrink->bridge_field.starts_with("xfs_sb.")) << no_shrink->bridge_field;
}

TEST_F(XfsFixture, GrowfsSizeInterpretedInMkfsBlocks) {
  const Dependency* conversion = find(DepKind::CcdBehavioral, ConstraintOp::Influences,
                                      "xfs_growfs.size", "mkfs_xfs.blocksize");
  ASSERT_NE(conversion, nullptr);
  EXPECT_EQ(conversion->bridge_field, "xfs_sb.sb_blocksize");
}

TEST_F(XfsFixture, GrowBehaviourGatedByCreationSize) {
  EXPECT_NE(find(DepKind::CcdBehavioral, ConstraintOp::Influences, "xfs_growfs.size",
                 "mkfs_xfs.size"),
            nullptr);
}

TEST_F(XfsFixture, RmapbtGatesGrowfsBehaviour) {
  bool found = false;
  for (const Dependency& d : deps()) {
    if (d.kind == DepKind::CcdBehavioral && d.other_param == "mkfs_xfs.rmapbt") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(XfsFixture, NoCrossTalkWithExt4Corpus) {
  for (const Dependency& d : deps()) {
    EXPECT_EQ(d.param.find("mke2fs"), std::string::npos) << d.summary();
    EXPECT_EQ(d.other_param.find("ext4_super_block"), std::string::npos) << d.summary();
  }
}

}  // namespace
}  // namespace fsdep::corpus
