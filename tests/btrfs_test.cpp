// BtrFS generalization tests (paper SS6, second target).
#include <gtest/gtest.h>

#include "corpus/pipeline.h"

namespace fsdep::corpus {
namespace {

using model::ConstraintOp;
using model::DepKind;
using model::Dependency;

class BtrfsFixture : public ::testing::Test {
 protected:
  static const std::vector<Dependency>& deps() {
    static const std::vector<Dependency> kDeps = runScenario(*findScenario("btrfs"));
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

TEST_F(BtrfsFixture, ComponentsParse) {
  // The BtrFS entry of the table on its own, so a parse failure names this suite.
  const FileSystem* entry = nullptr;
  for (const FileSystem& fs : fileSystems()) {
    if (fs.name == "btrfs") entry = &fs;
  }
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->components.size(), 3u);
  for (const Component& component : entry->components) {
    EXPECT_NO_THROW(AnalyzedComponent(component.name, taint::AnalysisOptions{})) << component.name;
  }
}

TEST_F(BtrfsFixture, MaxInlineBoundedByNodeSize) {
  // The headline CCD: a mount option bounded by a creation parameter.
  const Dependency* dep = find(DepKind::CcdValue, ConstraintOp::Le, "btrfs_mount.max_inline",
                               "mkfs_btrfs.nodesize");
  ASSERT_NE(dep, nullptr);
  EXPECT_EQ(dep->bridge_field, "btrfs_sb.sb_nodesize");
}

TEST_F(BtrfsFixture, BalanceRaid5RequiresRaid56Format) {
  const Dependency* dep = find(DepKind::CcdControl, ConstraintOp::Requires,
                               "btrfs_balance.convert_raid5", "mkfs_btrfs.raid56");
  ASSERT_NE(dep, nullptr);
  EXPECT_EQ(dep->bridge_field, "btrfs_sb.sb_features");
}

TEST_F(BtrfsFixture, BalanceBehaviourGatedByCreationProfile) {
  EXPECT_NE(find(DepKind::CcdBehavioral, ConstraintOp::Influences, "btrfs_balance.convert",
                 "mkfs_btrfs.data_profile"),
            nullptr);
  bool mixed_bg = false;
  for (const Dependency& d : deps()) {
    if (d.kind == DepKind::CcdBehavioral && d.other_param == "mkfs_btrfs.mixed_bg") {
      mixed_bg = true;
    }
  }
  EXPECT_TRUE(mixed_bg);
}

TEST_F(BtrfsFixture, MountOptionInteractions) {
  EXPECT_NE(find(DepKind::CpdControl, ConstraintOp::Requires, "btrfs_mount.nodatacow",
                 "btrfs_mount.nodatasum"),
            nullptr);
  EXPECT_NE(find(DepKind::CpdControl, ConstraintOp::Excludes, "btrfs_mount.compress",
                 "btrfs_mount.nodatacow"),
            nullptr);
}

TEST_F(BtrfsFixture, NodeSectorRelations) {
  EXPECT_NE(find(DepKind::CpdValue, ConstraintOp::Ge, "mkfs_btrfs.nodesize",
                 "mkfs_btrfs.sectorsize"),
            nullptr);
  // mixed_bg forces equality — extracted as the Eq relation.
  EXPECT_NE(find(DepKind::CpdValue, ConstraintOp::Eq, "mkfs_btrfs.nodesize",
                 "mkfs_btrfs.sectorsize"),
            nullptr);
}

TEST_F(BtrfsFixture, ExtractsAllThreeLevels) {
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
  EXPECT_GE(ccd, 3);
}

}  // namespace
}  // namespace fsdep::corpus
