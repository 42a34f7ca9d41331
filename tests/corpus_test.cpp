// Integration tests over the embedded corpus: the frontend must digest
// every component cleanly and the full pipeline must reproduce the
// paper's Table 5 cell by cell.
#include <gtest/gtest.h>

#include <set>

#include "corpus/pipeline.h"

namespace fsdep::corpus {
namespace {

TEST(Corpus, AllComponentsParseAndResolve) {
  for (const FileSystem& fs : fileSystems()) {
    for (const Component& component : fs.components) {
      EXPECT_NO_THROW({
        AnalyzedComponent analyzed(component.name, taint::AnalysisOptions{});
        EXPECT_GT(analyzed.tu().decls.size(), 0u) << component.name;
      }) << component.name;
    }
  }
}

TEST(Corpus, HeadersResolve) {
  for (const FileSystem& fs : fileSystems()) {
    EXPECT_TRUE(headerSource(fs.header).has_value()) << fs.header;
  }
  EXPECT_TRUE(headerSource("fsdep_libc.h").has_value());
  EXPECT_FALSE(headerSource("nonsense.h").has_value());
}

TEST(Corpus, ScenarioSelectionsNameRealFunctions) {
  for (const FileSystem& fs : fileSystems()) {
    for (const Scenario& scenario : fs.scenarios) {
      for (const auto& [component, functions] : scenario.selection) {
        AnalyzedComponent analyzed(component, taint::AnalysisOptions{});
        for (const std::string& fn : functions) {
          const ast::FunctionDecl* decl = analyzed.tu().findFunction(fn);
          ASSERT_NE(decl, nullptr) << scenario.id << ": " << component << "::" << fn;
          EXPECT_TRUE(decl->isDefinition()) << scenario.id << ": " << component << "::" << fn;
        }
      }
    }
  }
}

TEST(Corpus, SeedsNameRealVariables) {
  // The analyzer drops a seed whose variable it cannot find, so each one
  // must bind: its variable's trace holds the seed's own step.
  std::size_t seeds = 0;
  for (const FileSystem& fs : fileSystems()) {
    for (const Component& component : fs.components) {
      AnalyzedComponent analyzed(component.name, taint::AnalysisOptions{});
      analyzed.analyze({});  // all functions, so every seed can bind
      for (const taint::Seed& seed : component.seeds) {
        const std::string where = component.name + ": " + seed.function + "." + seed.variable;
        ASSERT_NE(analyzed.tu().findFunction(seed.function), nullptr) << where;
        const auto* trace = analyzed.analyzer().traceFor(seed.function + "." + seed.variable);
        ASSERT_NE(trace, nullptr) << where;
        bool bound = false;
        for (const taint::TraceStep& step : *trace) {
          bound = bound || step.text == "seed: carries " + seed.param;
        }
        EXPECT_TRUE(bound) << where;
        ++seeds;
      }
    }
  }
  EXPECT_GE(seeds, 131u);  // the Ext4, XFS and BtrFS seeds
}

TEST(Corpus, ComponentNamesAreUniqueAcrossTheTable) {
  // Lookups take the first match, so a duplicate would be shadowed.
  std::set<std::string> names;
  for (const FileSystem& fs : fileSystems()) {
    for (const Component& component : fs.components) {
      EXPECT_TRUE(names.insert(component.name).second) << component.name;
    }
  }
}

TEST(Corpus, EachFileSystemHasOneKernelComponent) {
  for (const FileSystem& fs : fileSystems()) {
    int kernels = 0;
    for (const Component& component : fs.components) {
      kernels += component.kernel ? 1 : 0;
      EXPECT_EQ(isKernelComponent(component.name), component.kernel) << component.name;
    }
    EXPECT_EQ(kernels, 1) << fs.name;
  }
}

TEST(Corpus, ScenariosSelectOnlyTheirFileSystemsComponents) {
  for (const FileSystem& fs : fileSystems()) {
    std::set<std::string> own;
    for (const Component& component : fs.components) own.insert(component.name);
    for (const Scenario& scenario : fs.scenarios) {
      EXPECT_TRUE(own.contains(scenario.metadata_owner)) << scenario.id;
      for (const auto& [component, functions] : scenario.selection) {
        EXPECT_TRUE(own.contains(component)) << scenario.id << ": " << component;
      }
      EXPECT_EQ(findScenario(scenario.id), &scenario) << scenario.id;
    }
  }
}

TEST(Corpus, GroundTruthHasSixtyFourEntries) {
  const auto& gt = groundTruth();
  EXPECT_EQ(gt.size(), 64u);
  int sd = 0;
  int cpd = 0;
  int ccd = 0;
  for (const extract::GroundTruthEntry& e : gt) {
    switch (e.dep.level()) {
      case model::DepLevel::SelfDependency: ++sd; break;
      case model::DepLevel::CrossParameter: ++cpd; break;
      case model::DepLevel::CrossComponent: ++ccd; break;
    }
  }
  EXPECT_EQ(sd, 32);
  EXPECT_EQ(cpd, 26);
  EXPECT_EQ(ccd, 6);
}

TEST(Corpus, GroundTruthKeysAreUnique) {
  std::set<std::string> keys;
  for (const extract::GroundTruthEntry& e : groundTruth()) {
    EXPECT_TRUE(keys.insert(e.dep.dedupKey()).second) << e.dep.dedupKey();
  }
}

// --- The headline experiment: Table 5, cell by cell. ---

class Table5Fixture : public ::testing::Test {
 protected:
  static const Table5Result& result() {
    static const Table5Result kResult = runTable5();
    return kResult;
  }
};

TEST_F(Table5Fixture, ScenarioOne) {
  const ScenarioResult& s1 = result().per_scenario.at(0);
  EXPECT_EQ(s1.score.sd.extracted, 31);
  EXPECT_EQ(s1.score.sd.false_positives, 0);
  EXPECT_EQ(s1.score.cpd.extracted, 24);
  EXPECT_EQ(s1.score.cpd.false_positives, 1);
  EXPECT_EQ(s1.score.ccd.extracted, 0);
}

TEST_F(Table5Fixture, ScenarioTwo) {
  const ScenarioResult& s2 = result().per_scenario.at(1);
  EXPECT_EQ(s2.score.sd.extracted, 31);
  EXPECT_EQ(s2.score.sd.false_positives, 0);
  EXPECT_EQ(s2.score.cpd.extracted, 24);
  EXPECT_EQ(s2.score.cpd.false_positives, 0);
  EXPECT_EQ(s2.score.ccd.extracted, 0);
}

TEST_F(Table5Fixture, ScenarioThree) {
  const ScenarioResult& s3 = result().per_scenario.at(2);
  EXPECT_EQ(s3.score.sd.extracted, 32);
  EXPECT_EQ(s3.score.sd.false_positives, 3);
  EXPECT_EQ(s3.score.cpd.extracted, 26);
  EXPECT_EQ(s3.score.cpd.false_positives, 0);
  EXPECT_EQ(s3.score.ccd.extracted, 6);
  EXPECT_EQ(s3.score.ccd.false_positives, 1);
}

TEST_F(Table5Fixture, ScenarioFour) {
  const ScenarioResult& s4 = result().per_scenario.at(3);
  EXPECT_EQ(s4.score.sd.extracted, 32);
  EXPECT_EQ(s4.score.sd.false_positives, 0);
  EXPECT_EQ(s4.score.cpd.extracted, 26);
  EXPECT_EQ(s4.score.cpd.false_positives, 0);
  EXPECT_EQ(s4.score.ccd.extracted, 0);
}

TEST_F(Table5Fixture, TotalUniqueRow) {
  const extract::ScenarioScore& unique = result().unique_score;
  EXPECT_EQ(unique.sd.extracted, 32);
  EXPECT_EQ(unique.sd.false_positives, 3);
  EXPECT_EQ(unique.cpd.extracted, 26);
  EXPECT_EQ(unique.cpd.false_positives, 1);
  EXPECT_EQ(unique.ccd.extracted, 6);
  EXPECT_EQ(unique.ccd.false_positives, 1);
  EXPECT_EQ(unique.totalExtracted(), 64);
  EXPECT_EQ(unique.totalFalsePositives(), 5);
}

TEST_F(Table5Fixture, NoUnlabelledExtractions) {
  for (const ScenarioResult& sr : result().per_scenario) {
    EXPECT_TRUE(sr.score.unlabelled.empty()) << sr.id;
  }
}

TEST_F(Table5Fixture, NoFalseNegatives) {
  for (const ScenarioResult& sr : result().per_scenario) {
    EXPECT_TRUE(sr.score.false_negative_ids.empty())
        << sr.id << " first: "
        << (sr.score.false_negative_ids.empty() ? "" : sr.score.false_negative_ids[0]);
  }
}

TEST_F(Table5Fixture, HeadlineCcdsAreFound) {
  const ScenarioResult& s3 = result().per_scenario.at(2);
  bool found_figure1 = false;
  bool found_online_control = false;
  for (const model::Dependency& dep : s3.deps) {
    if (dep.other_param == "mke2fs.sparse_super2" && dep.kind == model::DepKind::CcdBehavioral) {
      found_figure1 = true;
    }
    if (dep.param == "resize2fs.online" && dep.kind == model::DepKind::CcdControl) {
      found_online_control = true;
    }
  }
  EXPECT_TRUE(found_figure1) << "the sparse_super2 resize dependency (Figure 1) must extract";
  EXPECT_TRUE(found_online_control);
}

TEST_F(Table5Fixture, ExtractionIsDeterministic) {
  const Table5Result second = runTable5();
  ASSERT_EQ(second.per_scenario.size(), result().per_scenario.size());
  for (std::size_t i = 0; i < second.per_scenario.size(); ++i) {
    ASSERT_EQ(second.per_scenario[i].deps.size(), result().per_scenario[i].deps.size());
    for (std::size_t j = 0; j < second.per_scenario[i].deps.size(); ++j) {
      EXPECT_EQ(second.per_scenario[i].deps[j].dedupKey(),
                result().per_scenario[i].deps[j].dedupKey());
    }
  }
}

TEST(CorpusAblation, NoBridgingMeansNoCcd) {
  taint::AnalysisOptions topts;
  topts.field_bridging = false;
  for (const Scenario& scenario : scenarios()) {
    const auto deps = runScenario(scenario, topts);
    for (const model::Dependency& dep : deps) {
      EXPECT_NE(dep.level(), model::DepLevel::CrossComponent)
          << scenario.id << ": " << dep.summary();
    }
  }
}

TEST(CorpusAblation, InterProceduralFindsAtLeastAsManyCcds) {
  // Paper §6: inter-procedural analysis should recover additional CCDs
  // (the accessor-shielded feature reads).
  taint::AnalysisOptions intra;
  taint::AnalysisOptions inter;
  inter.inter_procedural = true;

  // Analyze every function so the accessors get summaries.
  auto count_ccd = [&](const taint::AnalysisOptions& topts) {
    std::vector<std::string> all;  // empty selection = all functions
    std::vector<extract::ComponentRun> runs;
    std::vector<std::unique_ptr<AnalyzedComponent>> components;
    for (const std::string& name : componentNames()) {
      auto c = std::make_unique<AnalyzedComponent>(name, topts);
      c->analyze({});
      components.push_back(std::move(c));
      runs.push_back(components.back()->asRun());
    }
    const auto deps = extract::extractDependencies(runs, extractOptions());
    int ccd = 0;
    for (const model::Dependency& d : deps) {
      ccd += d.level() == model::DepLevel::CrossComponent ? 1 : 0;
    }
    return ccd;
  };

  const int intra_ccd = count_ccd(intra);
  const int inter_ccd = count_ccd(inter);
  EXPECT_GE(inter_ccd, intra_ccd);
  EXPECT_GT(inter_ccd, 0);
}

TEST(CorpusData, EcosystemTotalsMatchTable2Premises) {
  const model::Ecosystem& eco = ecosystem();
  std::size_t fs_side = 0;
  for (const char* name : {"mke2fs", "mount", "ext4"}) {
    ASSERT_NE(eco.findComponent(name), nullptr);
    fs_side += eco.findComponent(name)->parameters.size();
  }
  EXPECT_GT(fs_side, 85u);
  EXPECT_GT(eco.findComponent("e2fsck")->parameters.size(), 35u);
  EXPECT_GT(eco.findComponent("resize2fs")->parameters.size(), 15u);
}

TEST(CorpusData, ManualsReferenceOnlyKnownParameters) {
  const model::Ecosystem& eco = ecosystem();
  for (const ManualEntry& entry : allManuals()) {
    if (entry.claim.param.starts_with("ext4.")) continue;  // persistent fields
    if (entry.claim.param.find(".resize2fs_") != std::string::npos) {
      continue;  // pseudo anchors name a behaviour (component.function)
    }
    EXPECT_NE(eco.findParameter(entry.claim.param), nullptr) << entry.claim.param;
  }
}

TEST(CorpusStructure, ComponentsDefineTheExpectedFunctions) {
  const std::map<std::string, std::vector<std::string>> expected = {
      {"mke2fs", {"blocksize_to_log", "mke2fs_write_super", "mke2fs_main"}},
      {"mount", {"mount_opt_value", "mount_main", "do_mount_syscall"}},
      {"ext4",
       {"ext4_check_magic", "ext4_has_feature_extents", "ext4_parse_options",
        "ext4_fill_super", "ext4_check_descriptors", "ext4_setup_super", "ext4_remount",
        "ext4_online_defrag_check", "ext4_validate_super_offline"}},
      {"e4defrag", {"defrag_check_fs", "e4defrag_main"}},
      {"resize2fs",
       {"resize2fs_main", "resize2fs_check_geometry", "resize2fs_adjust_last_group",
        "resize2fs_print_summary"}},
      {"e2fsck", {"e2fsck_check_super", "e2fsck_main"}},
  };
  for (const auto& [component, functions] : expected) {
    AnalyzedComponent analyzed(component, taint::AnalysisOptions{});
    for (const std::string& fn : functions) {
      const ast::FunctionDecl* decl = analyzed.tu().findFunction(fn);
      ASSERT_NE(decl, nullptr) << component << "::" << fn;
      EXPECT_TRUE(decl->isDefinition()) << component << "::" << fn;
    }
  }
}

TEST(CorpusStructure, SharedSuperblockHasTheBridgeFields) {
  AnalyzedComponent mke2fs("mke2fs", taint::AnalysisOptions{});
  const ast::RecordDecl* sb = nullptr;
  for (const auto& d : mke2fs.tu().decls) {
    if (d->kind() == ast::DeclKind::Record && d->name == "ext4_super_block") {
      sb = static_cast<const ast::RecordDecl*>(d.get());
    }
  }
  ASSERT_NE(sb, nullptr);
  for (const char* field : {"s_blocks_count", "s_log_block_size", "s_feature_compat",
                            "s_r_blocks_count", "s_volume_name", "s_error_count"}) {
    EXPECT_NE(sb->findField(field), nullptr) << field;
  }
}

}  // namespace
}  // namespace fsdep::corpus
