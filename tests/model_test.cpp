#include <gtest/gtest.h>

#include "model/config_model.h"
#include "model/dependency.h"
#include "model/serialization.h"

namespace fsdep::model {
namespace {

TEST(ConfigModel, EcosystemLookup) {
  Ecosystem eco;
  Component c;
  c.name = "mke2fs";
  Parameter p;
  p.component = "mke2fs";
  p.name = "blocksize";
  p.flag = "-b";
  c.parameters.push_back(p);
  eco.addComponent(std::move(c));

  ASSERT_NE(eco.findComponent("mke2fs"), nullptr);
  EXPECT_EQ(eco.findComponent("nope"), nullptr);
  ASSERT_NE(eco.findParameter("mke2fs.blocksize"), nullptr);
  EXPECT_EQ(eco.findParameter("mke2fs.blocksize")->flag, "-b");
  EXPECT_EQ(eco.findParameter("mke2fs.unknown"), nullptr);
  EXPECT_EQ(eco.findParameter("noDotHere"), nullptr);
}

TEST(Dependency, LevelsFromKinds) {
  EXPECT_EQ(depLevelOf(DepKind::SdDataType), DepLevel::SelfDependency);
  EXPECT_EQ(depLevelOf(DepKind::SdValueRange), DepLevel::SelfDependency);
  EXPECT_EQ(depLevelOf(DepKind::CpdControl), DepLevel::CrossParameter);
  EXPECT_EQ(depLevelOf(DepKind::CpdValue), DepLevel::CrossParameter);
  EXPECT_EQ(depLevelOf(DepKind::CcdControl), DepLevel::CrossComponent);
  EXPECT_EQ(depLevelOf(DepKind::CcdValue), DepLevel::CrossComponent);
  EXPECT_EQ(depLevelOf(DepKind::CcdBehavioral), DepLevel::CrossComponent);
}

TEST(Dependency, KindNamesRoundTrip) {
  for (const DepKind kind : {DepKind::SdDataType, DepKind::SdValueRange, DepKind::CpdControl,
                             DepKind::CpdValue, DepKind::CcdControl, DepKind::CcdValue,
                             DepKind::CcdBehavioral}) {
    EXPECT_EQ(depKindFromName(depKindName(kind)), kind);
  }
}

TEST(Dependency, ExcludesDedupKeyIsSymmetric) {
  Dependency a;
  a.kind = DepKind::CpdControl;
  a.op = ConstraintOp::Excludes;
  a.param = "mke2fs.meta_bg";
  a.other_param = "mke2fs.resize_inode";

  Dependency b = a;
  std::swap(b.param, b.other_param);

  EXPECT_EQ(a.dedupKey(), b.dedupKey());
}

TEST(Dependency, RequiresDedupKeyIsDirected) {
  Dependency a;
  a.kind = DepKind::CpdControl;
  a.op = ConstraintOp::Requires;
  a.param = "mke2fs.bigalloc";
  a.other_param = "mke2fs.extent";

  Dependency b = a;
  std::swap(b.param, b.other_param);

  EXPECT_NE(a.dedupKey(), b.dedupKey());
}

TEST(Dependency, SummaryMentionsEverything) {
  Dependency d;
  d.kind = DepKind::CcdValue;
  d.op = ConstraintOp::Ge;
  d.param = "resize2fs.size";
  d.other_param = "mke2fs.reserved_ratio";
  d.bridge_field = "ext4_super_block.s_r_blocks_count";
  const std::string s = d.summary();
  EXPECT_NE(s.find("resize2fs.size"), std::string::npos);
  EXPECT_NE(s.find("mke2fs.reserved_ratio"), std::string::npos);
  EXPECT_NE(s.find("s_r_blocks_count"), std::string::npos);
  EXPECT_NE(s.find("CCD"), std::string::npos);
}

TEST(Serialization, DependencyRoundTrip) {
  Dependency d;
  d.id = "sd-range-mke2fs-blocksize";
  d.kind = DepKind::SdValueRange;
  d.op = ConstraintOp::InRange;
  d.param = "mke2fs.blocksize";
  d.low = 1024;
  d.high = 65536;
  d.description = "block size range";
  d.trace = {"L10: blocksize <- parse_num(optarg)", "L42: guard"};

  const json::Value encoded = toJson(d);
  const Result<Dependency> decoded = dependencyFromJson(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, d.id);
  EXPECT_EQ(decoded.value().kind, d.kind);
  EXPECT_EQ(decoded.value().op, d.op);
  EXPECT_EQ(decoded.value().param, d.param);
  EXPECT_EQ(decoded.value().low, d.low);
  EXPECT_EQ(decoded.value().high, d.high);
  EXPECT_EQ(decoded.value().trace, d.trace);
  EXPECT_EQ(decoded.value().dedupKey(), d.dedupKey());
}

TEST(Serialization, DependencyListRoundTrip) {
  Dependency a;
  a.id = "a";
  a.kind = DepKind::CpdControl;
  a.op = ConstraintOp::Excludes;
  a.param = "x.p";
  a.other_param = "x.q";
  Dependency b;
  b.id = "b";
  b.kind = DepKind::CcdBehavioral;
  b.op = ConstraintOp::Influences;
  b.param = "y.r";
  b.other_param = "x.p";
  b.bridge_field = "s.f";

  const json::Value encoded = toJson(std::vector<Dependency>{a, b});
  const auto decoded = dependenciesFromJson(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 2u);
  EXPECT_EQ(decoded.value()[0].id, "a");
  EXPECT_EQ(decoded.value()[1].bridge_field, "s.f");
}

TEST(Serialization, RejectsBadKind) {
  json::Object o;
  o["id"] = "x";
  o["kind"] = "not-a-kind";
  o["op"] = "==";
  o["param"] = "a.b";
  EXPECT_FALSE(dependencyFromJson(o).ok());
}

}  // namespace
}  // namespace fsdep::model
