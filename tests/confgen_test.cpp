// tools/confgen: the dependency-aware configuration generator and the
// deterministic matrix sampler the campaign engine draws from.
#include <gtest/gtest.h>

#include "tools/confgen/confgen.h"

#include <set>

#include "fsim/mkfs.h"

namespace fsdep::tools {
namespace {

TEST(ConfigGenerator, SameSeedSameStream) {
  ConfigGenerator a(7);
  ConfigGenerator b(7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.nextUint(), b.nextUint());
}

TEST(ConfigGenerator, ZeroSeedIsUsable) {
  ConfigGenerator gen(0);
  // xorshift with state 0 would be stuck at 0 forever.
  EXPECT_NE(gen.nextUint(), 0u);
}

TEST(ConfigGenerator, RandomConfigIsDeterministic) {
  ConfigGenerator a(2024);
  ConfigGenerator b(2024);
  const GeneratedConfig ca = a.randomConfig();
  const GeneratedConfig cb = b.randomConfig();
  EXPECT_EQ(ca.mkfs.block_size, cb.mkfs.block_size);
  EXPECT_EQ(ca.mkfs.inode_ratio, cb.mkfs.inode_ratio);
  EXPECT_EQ(ca.mkfs.bigalloc, cb.mkfs.bigalloc);
  EXPECT_EQ(ca.resize_target, cb.resize_target);
}

TEST(Sampling, KnobDomainsAreStable) {
  const std::vector<SamplingKnob>& knobs = samplingKnobs();
  ASSERT_GE(knobs.size(), 4u);
  for (const SamplingKnob& knob : knobs) {
    EXPECT_FALSE(knob.name.empty());
    EXPECT_GE(knob.values.size(), 2u) << knob.name;
  }
  // The baseline (value 0 everywhere) must be the CrashCk geometry.
  const GeneratedConfig baseline = baselineConfig();
  EXPECT_EQ(baseline.mkfs.block_size, 1024u);
  EXPECT_EQ(baseline.mkfs.size_blocks, 2048u);
  EXPECT_EQ(baseline.mkfs.blocks_per_group, 512u);
}

TEST(Sampling, ApplyKnobLayoutIsMutuallyExclusive) {
  const std::vector<SamplingKnob>& knobs = samplingKnobs();
  std::size_t layout = knobs.size();
  for (std::size_t i = 0; i < knobs.size(); ++i) {
    if (knobs[i].name == "layout") layout = i;
  }
  ASSERT_LT(layout, knobs.size());
  for (std::size_t v = 0; v < knobs[layout].values.size(); ++v) {
    GeneratedConfig config = baselineConfig();
    applyKnob(config, layout, v);
    const int enabled = (config.mkfs.resize_inode ? 1 : 0) +
                        (config.mkfs.sparse_super2 ? 1 : 0) + (config.mkfs.meta_bg ? 1 : 0);
    EXPECT_LE(enabled, 1) << knobs[layout].values[v];
  }
}

TEST(Sampling, EachUsedValueCoversEveryKnobValue) {
  SamplingOptions options;
  options.pairwise = false;
  const std::vector<SampledConfig> matrix = sampleConfigMatrix(options, {});
  ASSERT_FALSE(matrix.empty());
  EXPECT_EQ(matrix.front().origin, "baseline");

  const std::vector<SamplingKnob>& knobs = samplingKnobs();
  for (std::size_t k = 0; k < knobs.size(); ++k) {
    for (std::size_t v = 0; v < knobs[k].values.size(); ++v) {
      bool covered = false;
      for (const SampledConfig& row : matrix) covered |= row.choices[k] == v;
      EXPECT_TRUE(covered) << knobs[k].name << "=" << knobs[k].values[v];
    }
  }
}

TEST(Sampling, PairwiseCoversEveryValuePair) {
  SamplingOptions options;
  const std::vector<SampledConfig> matrix = sampleConfigMatrix(options, {});
  const std::vector<SamplingKnob>& knobs = samplingKnobs();
  for (std::size_t a = 0; a < knobs.size(); ++a) {
    for (std::size_t b = a + 1; b < knobs.size(); ++b) {
      for (std::size_t va = 0; va < knobs[a].values.size(); ++va) {
        for (std::size_t vb = 0; vb < knobs[b].values.size(); ++vb) {
          bool covered = false;
          for (const SampledConfig& row : matrix)
            covered |= row.choices[a] == va && row.choices[b] == vb;
          EXPECT_TRUE(covered) << knobs[a].name << "=" << knobs[a].values[va] << " x "
                               << knobs[b].name << "=" << knobs[b].values[vb];
        }
      }
    }
  }
}

TEST(Sampling, MatrixIsDeterministicAndDeduplicated) {
  const std::vector<SampledConfig> a = sampleConfigMatrix({}, {});
  const std::vector<SampledConfig> b = sampleConfigMatrix({}, {});
  ASSERT_EQ(a.size(), b.size());
  std::set<std::vector<std::size_t>> seen;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].choices, b[i].choices);
    EXPECT_EQ(a[i].origin, b[i].origin);
    EXPECT_EQ(a[i].label(), b[i].label());
    EXPECT_TRUE(seen.insert(a[i].choices).second) << "duplicate row " << a[i].label();
  }
}

TEST(Sampling, MaxConfigsIsAPrefixOfTheFullMatrix) {
  const std::vector<SampledConfig> full = sampleConfigMatrix({}, {});
  SamplingOptions capped;
  capped.max_configs = 5;
  const std::vector<SampledConfig> prefix = sampleConfigMatrix(capped, {});
  ASSERT_EQ(prefix.size(), 5u);
  for (std::size_t i = 0; i < prefix.size(); ++i)
    EXPECT_EQ(prefix[i].choices, full[i].choices);
}

TEST(Sampling, RepairResolvesStructuralConflicts) {
  for (const SampledConfig& row : sampleConfigMatrix({}, {})) {
    const fsim::MkfsOptions& mkfs = row.config.mkfs;
    EXPECT_FALSE(mkfs.sparse_super2 && mkfs.resize_inode) << row.label();
    EXPECT_FALSE(mkfs.bigalloc && !mkfs.extents) << row.label();
    if (mkfs.bigalloc) {
      EXPECT_GE(mkfs.cluster_size, mkfs.block_size) << row.label();
    }
  }
}

TEST(Sampling, BaselineRowPassesMkfsValidation) {
  const std::vector<SampledConfig> matrix = sampleConfigMatrix({}, {});
  ASSERT_FALSE(matrix.empty());
  const auto violations =
      fsim::MkfsTool::validate(matrix.front().config.mkfs, 8192ull * 1024ull);
  EXPECT_TRUE(violations.empty()) << (violations.empty() ? "" : violations.front());
}

TEST(ParamBindings, EachRowReadsBackWhatItWrites) {
  for (const ParamBinding& binding : paramBindings()) {
    GeneratedConfig config = baselineConfig();
    const std::int64_t value = binding.on != 0 ? binding.on : 300;
    binding.set(config, value);
    EXPECT_EQ(binding.get(config), value) << binding.name;
    EXPECT_EQ(binding.enabled(config), binding.on != 0) << binding.name;
    binding.set(config, 0);
    EXPECT_EQ(binding.get(config), 0) << binding.name;
    EXPECT_FALSE(binding.enabled(config)) << binding.name;
  }
  EXPECT_EQ(findParamBinding("mke2fs.label"), nullptr);  // a string, not drivable
  GeneratedConfig config;
  EXPECT_FALSE(setParam(config, "mke2fs.flex_bg_size", 16));
}

model::Dependency relation(model::ConstraintOp op, const std::string& param,
                           const std::string& other) {
  model::Dependency dep;
  dep.op = op;
  dep.param = param;
  dep.other_param = other;
  return dep;
}

TEST(Repair, EnablesARequirementAndDisablesAnExcludedSubject) {
  using model::ConstraintOp;
  GeneratedConfig config = baselineConfig();
  config.mkfs.bigalloc = true;
  config.mkfs.cluster_size = 2048;
  config.mkfs.encrypt = true;
  config.mkfs.extents = false;
  repairConfig(config, {relation(ConstraintOp::Requires, "mke2fs.bigalloc", "mke2fs.extent")});
  EXPECT_TRUE(config.mkfs.extents);
  // Disabling bigalloc also clears the cluster size it gave meaning.
  repairConfig(config, {relation(ConstraintOp::Excludes, "mke2fs.bigalloc", "mke2fs.encrypt")});
  EXPECT_FALSE(config.mkfs.bigalloc);
  EXPECT_EQ(config.mkfs.cluster_size, 0u);
  EXPECT_TRUE(config.mkfs.encrypt);
}

TEST(Repair, ValueRelationsMoveTheParameterOntoItsBound) {
  using model::ConstraintOp;
  GeneratedConfig config = baselineConfig();  // 1 KiB blocks
  config.mkfs.blocks_per_group = 16384;
  config.mkfs.size_blocks = 16;
  repairConfig(config,
               {relation(ConstraintOp::Le, "mke2fs.blocks_per_group", "mke2fs.blocksize"),
                relation(ConstraintOp::Ge, "mke2fs.size", "mke2fs.blocksize"),
                relation(ConstraintOp::Ge, "mke2fs.cluster_size", "mke2fs.blocksize")});
  EXPECT_EQ(config.mkfs.blocks_per_group, 8192u);  // one bitmap block: 8 x blocksize
  EXPECT_EQ(config.mkfs.size_blocks, 16u);         // blocks, not bytes: left alone
  EXPECT_EQ(config.mkfs.cluster_size, 0u);         // unset stays unset
}

TEST(Repair, AppliesStructuralRulesWithoutDependencies) {
  GeneratedConfig config = baselineConfig();
  config.mount.dax = true;           // needs 4 KiB blocks; baseline is 1 KiB
  config.mount.noload = true;        // norecovery requires read-only
  config.mkfs.blocks_per_group = 128;  // below the format minimum
  repairConfig(config, {});
  EXPECT_FALSE(config.mount.dax);
  EXPECT_TRUE(config.mount.read_only);
  EXPECT_GE(config.mkfs.blocks_per_group, 256u);
}

}  // namespace
}  // namespace fsdep::tools
