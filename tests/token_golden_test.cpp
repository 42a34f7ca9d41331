// Golden digest of the preprocessed token stream. Each digest is
// corpus::contentDigest over one line per token — kind, text, file,
// line, column, start_of_line, int_value — for the stream the component
// cache parses (same SourceManager set-up, same header resolver).
// Recorded from the lexer that owned one std::string per token, before
// tokens became views; any change to a digest is a change in what the
// parser sees. The corpus has no escapes and no `//` comments, so
// lexer_test and preprocessor_test cover those paths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/amplify.h"
#include "corpus/corpus.h"
#include "corpus/disk_cache.h"
#include "golden_digest.h"
#include "lex/preprocessor.h"

namespace fsdep::corpus {
namespace {

using golden::hex;
using golden::withoutGeneration;

/// Appends one line per token of `component`'s preprocessed stream.
void appendTokenStream(const std::string& component, std::string& out) {
  SourceManager sm;
  DiagnosticEngine diags;
  const FileId file = sm.addBuffer(component + ".c", std::string(componentSource(component)));
  lex::Preprocessor pp(sm, diags, [](std::string_view header) { return headerSource(header); });
  const std::vector<lex::Token> tokens = pp.tokenize(file);
  ASSERT_FALSE(diags.hasErrors()) << component;
  out += component + " " + std::to_string(tokens.size()) + "\n";
  for (const lex::Token& t : tokens) {
    out += std::to_string(static_cast<int>(t.kind)) + " " + std::to_string(t.text.size()) + ":";
    out += t.text;
    out += " " + std::to_string(t.loc.file.value) + " " + std::to_string(t.loc.line) + " " +
           std::to_string(t.loc.column) + " " + (t.start_of_line ? "1" : "0") + " " +
           std::to_string(t.int_value) + "\n";
  }
}

// Every Ext4, XFS and BtrFS seed component, in registry order.
constexpr std::uint64_t kSeedStream = 0x009a180022363f7dull;
// Factor 5, seed 42: every amplified component, in corpus order.
constexpr std::uint64_t kAmplifiedStream = 0xcf4a65d103cced22ull;

TEST(TokenGolden, SeedComponents) {
  std::vector<std::string> names;
  for (const FileSystem& fs : fileSystems()) {
    for (const Component& component : fs.components) names.push_back(component.name);
  }
  ASSERT_EQ(names.size(), 12u);
  std::string stream;
  for (const std::string& name : names) appendTokenStream(name, stream);
  EXPECT_EQ(hex(contentDigest(stream)), hex(kSeedStream));
}

TEST(TokenGolden, AmplifiedCorpus) {
  std::string stream;
  for (const std::string& name : amplifyCorpus({.factor = 5, .seed = 42})) {
    appendTokenStream(name, stream);
  }
  EXPECT_EQ(hex(contentDigest(withoutGeneration(stream))), hex(kAmplifiedStream));
}

}  // namespace
}  // namespace fsdep::corpus
