#include <gtest/gtest.h>

#include <map>

#include "lex/preprocessor.h"

namespace fsdep::lex {
namespace {

struct PpResult {
  std::vector<Token> tokens;
  bool had_errors = false;
};

PpResult preprocess(const std::string& main_text,
                    const std::map<std::string, std::string>& headers = {}) {
  static SourceManager sm;
  DiagnosticEngine diags;
  const FileId file = sm.addBuffer("main.c", main_text);
  Preprocessor pp(sm, diags, [headers](std::string_view name) -> std::optional<std::string> {
    const auto it = headers.find(std::string(name));
    if (it == headers.end()) return std::nullopt;
    return it->second;
  });
  PpResult result;
  result.tokens = pp.tokenize(file);
  result.had_errors = diags.hasErrors();
  return result;
}

std::string spelling(const std::vector<Token>& tokens) {
  std::string out;
  for (const Token& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t.kind == TokenKind::IntLiteral ? std::to_string(t.int_value) : t.text;
  }
  return out;
}

TEST(Preprocessor, ObjectMacroExpansion) {
  const auto r = preprocess("#define MAX 4096\nint x = MAX;");
  EXPECT_FALSE(r.had_errors);
  EXPECT_EQ(spelling(r.tokens), "int x = 4096 ;");
}

TEST(Preprocessor, MacroExpandsToExpression) {
  const auto r = preprocess("#define LIMIT (1024 * 8)\nint x = LIMIT;");
  EXPECT_EQ(spelling(r.tokens), "int x = ( 1024 * 8 ) ;");
}

TEST(Preprocessor, NestedMacros) {
  const auto r = preprocess("#define A B\n#define B 7\nint x = A;");
  EXPECT_EQ(spelling(r.tokens), "int x = 7 ;");
}

TEST(Preprocessor, SelfReferentialMacroDoesNotLoop) {
  const auto r = preprocess("#define X X\nint X;");
  EXPECT_EQ(spelling(r.tokens), "int X ;");
}

TEST(Preprocessor, MutuallyRecursiveMacrosStopAtTheRepeat) {
  const auto r = preprocess("#define A B + 1\n#define B A * 2\nA B");
  EXPECT_EQ(spelling(r.tokens), "A * 2 + 1 B + 1 * 2");
  EXPECT_FALSE(r.had_errors);
}

/// "#define M0 M1" ... "#define M<depth-1> M<depth>", "#define M<depth> 7", then "M0".
std::string macroChain(std::size_t depth) {
  std::string text;
  for (std::size_t i = 0; i < depth; ++i) {
    text += "#define M" + std::to_string(i) + " M" + std::to_string(i + 1) + "\n";
  }
  return text + "#define M" + std::to_string(depth) + " 7\nM0 ;";
}

TEST(Preprocessor, MacroChainWithinTheBudgetExpands) {
  const auto r = preprocess(macroChain(Preprocessor::kMaxMacroDepth - 1));
  EXPECT_FALSE(r.had_errors);
  EXPECT_EQ(spelling(r.tokens), "7 ;");
}

TEST(Preprocessor, MacroChainPastTheBudgetIsOneError) {
  SourceManager sm;
  DiagnosticEngine diags;
  const FileId file = sm.addBuffer("main.c", macroChain(Preprocessor::kMaxMacroDepth) + " M0");
  Preprocessor pp(sm, diags, [](std::string_view) { return std::nullopt; });
  const std::vector<Token> tokens = pp.tokenize(file);
  EXPECT_EQ(spelling(tokens), ";") << "each overflowing use expands to nothing";
  EXPECT_EQ(diags.errorCount(), 2u) << "one diagnostic per overflowing use";
  EXPECT_NE(diags.render(sm).find("macro expansion too deep"), std::string::npos);
}

TEST(Preprocessor, Undef) {
  const auto r = preprocess("#define N 1\n#undef N\nint N;");
  EXPECT_EQ(spelling(r.tokens), "int N ;");
}

TEST(Preprocessor, IfdefTrueBranch) {
  const auto r = preprocess("#define FEATURE 1\n#ifdef FEATURE\nint yes;\n#else\nint no;\n#endif");
  EXPECT_EQ(spelling(r.tokens), "int yes ;");
}

TEST(Preprocessor, IfndefWithElse) {
  const auto r = preprocess("#ifndef MISSING\nint a;\n#else\nint b;\n#endif");
  EXPECT_EQ(spelling(r.tokens), "int a ;");
}

TEST(Preprocessor, NestedConditionals) {
  const auto r = preprocess(
      "#define OUTER 1\n"
      "#ifdef OUTER\n"
      "#ifdef INNER\nint both;\n#else\nint outer_only;\n#endif\n"
      "#endif");
  EXPECT_EQ(spelling(r.tokens), "int outer_only ;");
}

TEST(Preprocessor, DefinesInsideInactiveBlocksAreIgnored) {
  const auto r = preprocess("#ifdef NOPE\n#define HIDDEN 9\n#endif\nint x = HIDDEN;");
  EXPECT_EQ(spelling(r.tokens), "int x = HIDDEN ;");
}

TEST(Preprocessor, IncludeSplicesTokens) {
  const auto r = preprocess("#include \"defs.h\"\nint x = VALUE;",
                            {{"defs.h", "#define VALUE 3\nint from_header;\n"}});
  EXPECT_FALSE(r.had_errors);
  EXPECT_EQ(spelling(r.tokens), "int from_header ; int x = 3 ;");
}

TEST(Preprocessor, IncludeIsIdempotent) {
  const auto r = preprocess("#include \"h.h\"\n#include \"h.h\"\nint x;",
                            {{"h.h", "int once;\n"}});
  EXPECT_EQ(spelling(r.tokens), "int once ; int x ;");
}

TEST(Preprocessor, HeaderGuardStyleWorks) {
  const std::string guarded = "#ifndef H_H\n#define H_H\nint guarded;\n#endif\n";
  const auto r = preprocess("#include \"g.h\"\nint tail;", {{"g.h", guarded}});
  EXPECT_FALSE(r.had_errors);
  EXPECT_EQ(spelling(r.tokens), "int guarded ; int tail ;");
}

TEST(Preprocessor, MissingIncludeIsAnError) {
  const auto r = preprocess("#include \"nowhere.h\"\nint x;");
  EXPECT_TRUE(r.had_errors);
  EXPECT_EQ(spelling(r.tokens), "int x ;");
}

TEST(Preprocessor, UnterminatedIfdefIsAnError) {
  const auto r = preprocess("#ifdef X\nint x;");
  EXPECT_TRUE(r.had_errors);
}

TEST(Preprocessor, UnbalancedEndifIsAnError) {
  const auto r = preprocess("#endif\nint x;");
  EXPECT_TRUE(r.had_errors);
}

TEST(Preprocessor, PredefinedMacros) {
  static SourceManager sm;
  DiagnosticEngine diags;
  const FileId file = sm.addBuffer("m.c", "int x = CONFIGURED;");
  Preprocessor pp(sm, diags, nullptr);
  pp.defineMacro("CONFIGURED", "123");
  const auto tokens = pp.tokenize(file);
  EXPECT_EQ(spelling(tokens), "int x = 123 ;");
  EXPECT_TRUE(pp.isMacroDefined("CONFIGURED"));
}

TEST(Preprocessor, PragmaIsIgnored) {
  const auto r = preprocess("#pragma once\nint x;");
  EXPECT_FALSE(r.had_errors);
  EXPECT_EQ(spelling(r.tokens), "int x ;");
}

TEST(Preprocessor, HashInsideLineIsNotADirective) {
  // '#' mid-line lexes as a Hash token but must not be treated as a
  // directive.
  const auto r = preprocess("int a; # define_not_really\nint b;");
  EXPECT_EQ(spelling(r.tokens), "int a ; # define_not_really int b ;");
}

TEST(Preprocessor, IncludeFromASmallFileKeepsReadingTheIncluder) {
  // 15 bytes: the includer's buffer lives inside its std::string. The
  // include adds a file while the includer's lexer still reads it.
  SourceManager sm;
  DiagnosticEngine diags;
  const std::string main_text = "#include\"a\"\nx y";
  ASSERT_EQ(main_text.size(), 15u);
  const FileId file = sm.addBuffer("main.c", main_text);
  Preprocessor pp(sm, diags, [](std::string_view name) -> std::optional<std::string> {
    if (name == "a") return std::string("int h;\n");
    return std::nullopt;
  });
  const std::vector<Token> tokens = pp.tokenize(file);
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_EQ(spelling(tokens), "int h ; x y");
}

TEST(Preprocessor, TokensOutliveThePreprocessorAndItsLexers) {
  SourceManager sm;
  std::vector<Token> tokens;
  {
    DiagnosticEngine diags;
    const FileId file = sm.addBuffer(
        "life.c", "#define SELF SELF\nident = SELF + PRE; s = \"a\\tb\"; c = '\\n';");
    Preprocessor pp(sm, diags, nullptr);
    pp.defineMacro("PRE", "predefined_value");
    tokens = pp.tokenize(file);
    ASSERT_FALSE(diags.hasErrors());
  }
  // Recycle the heap the Preprocessor and its Lexers freed.
  std::vector<std::string> churn;
  for (int i = 0; i < 256; ++i) churn.emplace_back(48, '#');
  ASSERT_EQ(tokens.size(), 14u);
  EXPECT_EQ(tokens[0].text, "ident");
  EXPECT_EQ(tokens[2].text, "SELF");  // self-referential: stays an identifier
  EXPECT_EQ(tokens[2].kind, TokenKind::Identifier);
  EXPECT_EQ(tokens[4].text, "predefined_value");  // from a predefined macro
  EXPECT_EQ(tokens[8].text, "a\tb");  // escaped string literal, decoded
  EXPECT_EQ(tokens[12].text, "\n");  // char escape, decoded
  EXPECT_EQ(tokens[12].int_value, '\n');
  EXPECT_EQ(spelling(tokens), "ident = SELF + predefined_value ; s = a\tb ; c = \n ;");
}

}  // namespace
}  // namespace fsdep::lex
