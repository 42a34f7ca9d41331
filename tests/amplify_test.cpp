// The corpus amplifier's contract: generation is pure (same options ->
// byte-identical sources and seeds, regardless of how many corpora came
// before), different seeds actually vary the corpus, the registry routes
// through the normal corpus entry points, and the synthetic components
// exercise the inter-procedural engine — a writer persists main()'s
// locals through a cross-function sink, so inter-procedural analysis
// must see strictly more labeled writes and dependencies than intra.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/amplify.h"
#include "corpus/corpus.h"
#include "corpus/pipeline.h"
#include "extract/extractor.h"

namespace fsdep::corpus {
namespace {

std::string replaceAll(std::string text, const std::string& from, const std::string& to) {
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

// "amp<gen>_<0000>" -> "amp<gen>_" (the part that changes per generation).
std::string generationPrefix(const std::string& name) {
  return name.substr(0, name.size() - 4);
}

TEST(Amplify, SameOptionsAreACheapNoOp) {
  const AmplifyOptions options{.factor = 2, .seed = 7};
  const std::vector<std::string> names = amplifyCorpus(options);
  ASSERT_EQ(names.size(), 2 * componentNames().size());
  const std::string source{*amplifiedSource(names[0])};

  EXPECT_EQ(amplifyCorpus(options), names);
  EXPECT_EQ(std::string(*amplifiedSource(names[0])), source);
}

TEST(Amplify, RegenerationIsPureModuloGenerationPrefix) {
  const AmplifyOptions options{.factor = 2, .seed = 99};
  const std::vector<std::string> first = amplifyCorpus(options);
  std::vector<std::string> first_sources;
  for (const std::string& name : first) first_sources.emplace_back(*amplifiedSource(name));
  std::vector<std::vector<taint::Seed>> first_seeds;
  for (const std::string& name : first) first_seeds.push_back(amplifiedSeeds(name));

  clearAmplifiedCorpus();
  const std::vector<std::string> second = amplifyCorpus(options);
  ASSERT_EQ(first.size(), second.size());
  const std::string old_prefix = generationPrefix(first[0]);
  const std::string new_prefix = generationPrefix(second[0]);
  ASSERT_NE(old_prefix, new_prefix);  // stale cache entries can never alias

  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(replaceAll(std::string(*amplifiedSource(second[i])), new_prefix, old_prefix),
              first_sources[i])
        << second[i];
    const std::vector<taint::Seed> seeds = amplifiedSeeds(second[i]);
    ASSERT_EQ(seeds.size(), first_seeds[i].size()) << second[i];
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      EXPECT_EQ(replaceAll(seeds[j].function, new_prefix, old_prefix),
                first_seeds[i][j].function);
      EXPECT_EQ(seeds[j].variable, first_seeds[i][j].variable);
      EXPECT_EQ(replaceAll(seeds[j].param, new_prefix, old_prefix), first_seeds[i][j].param);
    }
  }
}

TEST(Amplify, DifferentSeedsVaryTheCorpus) {
  const std::vector<std::string> a = amplifyCorpus({.factor = 2, .seed = 1});
  std::vector<std::string> a_sources;
  for (const std::string& name : a) a_sources.emplace_back(*amplifiedSource(name));

  const std::vector<std::string> b = amplifyCorpus({.factor = 2, .seed = 2});
  ASSERT_EQ(a.size(), b.size());
  const std::string a_prefix = generationPrefix(a[0]);
  const std::string b_prefix = generationPrefix(b[0]);
  std::size_t different = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (replaceAll(std::string(*amplifiedSource(b[i])), b_prefix, a_prefix) != a_sources[i]) {
      ++different;
    }
  }
  EXPECT_GT(different, 0u);
}

TEST(Amplify, RegistryRoutesThroughCorpusEntryPoints) {
  const std::vector<std::string> names = amplifyCorpus({.factor = 1, .seed = 42});
  ASSERT_FALSE(names.empty());
  EXPECT_FALSE(componentSource(names[0]).empty());
  EXPECT_TRUE(headerSource("amp_sb_0.h").has_value());
  EXPECT_FALSE(headerSource("amp_sb_1.h").has_value());  // factor 1 = one ecosystem
  EXPECT_FALSE(componentSeeds(names[0]).empty());
  EXPECT_FALSE(isKernelComponent(names[0]));

  clearAmplifiedCorpus();
  EXPECT_TRUE(componentSource(names[0]).empty());
  EXPECT_TRUE(componentSeeds(names[0]).empty());
}

TEST(Amplify, InterProceduralSeesCrossFunctionSinks) {
  // names[0] is a writer: main() computes config locals and persists
  // them only through the _write_super helper.
  const std::vector<std::string> names = amplifyCorpus({.factor = 1, .seed = 42});
  ASSERT_FALSE(names.empty());

  taint::AnalysisOptions inter;
  inter.inter_procedural = true;
  AnalyzedComponent inter_writer(names[0], inter);
  inter_writer.analyze({});
  AnalyzedComponent intra_writer(names[0], taint::AnalysisOptions{});
  intra_writer.analyze({});
  EXPECT_GT(inter_writer.analyzer().writeEvents().size(),
            intra_writer.analyzer().writeEvents().size());

  // Over the whole synthetic ecosystem, the cross-function field stores
  // turn into extracted dependencies only inter-procedurally.
  const auto extractWith = [&names](const taint::AnalysisOptions& topts) {
    std::vector<AnalyzedComponent> components;
    components.reserve(names.size());
    std::vector<extract::ComponentRun> runs;
    for (const std::string& name : names) {
      components.emplace_back(name, topts).analyze({});
    }
    for (const AnalyzedComponent& component : components) runs.push_back(component.asRun());
    return extract::extractDependencies(runs, amplifiedExtractOptions()).size();
  };
  EXPECT_GT(extractWith(inter), extractWith(taint::AnalysisOptions{}));
}

}  // namespace
}  // namespace fsdep::corpus
