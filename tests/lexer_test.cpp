#include <gtest/gtest.h>

#include <string>

#include "lex/lexer.h"

namespace fsdep::lex {
namespace {

std::vector<Token> lexText(const std::string& text, DiagnosticEngine* diags_out = nullptr) {
  static SourceManager sm;  // keeps buffers alive across assertions
  static DiagnosticEngine scratch;
  DiagnosticEngine& diags = diags_out != nullptr ? *diags_out : scratch;
  scratch.clear();
  const FileId file = sm.addBuffer("test.c", text);
  Lexer lexer(sm, file, diags);
  return lexer.lexAll();
}

TEST(Lexer, Identifiers) {
  const auto tokens = lexText("foo _bar baz_9");
  ASSERT_EQ(tokens.size(), 3u);
  for (const Token& t : tokens) EXPECT_EQ(t.kind, TokenKind::Identifier);
  EXPECT_EQ(tokens[0].text, "foo");
  EXPECT_EQ(tokens[1].text, "_bar");
  EXPECT_EQ(tokens[2].text, "baz_9");
}

TEST(Lexer, Keywords) {
  const auto tokens = lexText("int unsigned struct enum if while return sizeof");
  ASSERT_EQ(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].kind, TokenKind::KwInt);
  EXPECT_EQ(tokens[1].kind, TokenKind::KwUnsigned);
  EXPECT_EQ(tokens[2].kind, TokenKind::KwStruct);
  EXPECT_EQ(tokens[3].kind, TokenKind::KwEnum);
  EXPECT_EQ(tokens[4].kind, TokenKind::KwIf);
  EXPECT_EQ(tokens[5].kind, TokenKind::KwWhile);
  EXPECT_EQ(tokens[6].kind, TokenKind::KwReturn);
  EXPECT_EQ(tokens[7].kind, TokenKind::KwSizeof);
}

TEST(Lexer, EveryKeywordAndItsNearMisses) {
  for (int k = static_cast<int>(TokenKind::KwVoid); k <= static_cast<int>(TokenKind::KwGoto); ++k) {
    const auto kind = static_cast<TokenKind>(k);
    const std::string word = tokenKindName(kind);
    const std::string capitalized = static_cast<char>(word[0] - 'a' + 'A') + word.substr(1);
    const auto tokens = lexText(word + " " + word + "_ " + word.substr(0, word.size() - 1) + " _" +
                                word + " " + capitalized);
    ASSERT_EQ(tokens.size(), 5u) << word;
    EXPECT_EQ(tokens[0].kind, kind) << word;
    EXPECT_EQ(tokens[0].text, word);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      EXPECT_EQ(tokens[i].kind, TokenKind::Identifier) << tokens[i].text;
    }
  }
}

TEST(Lexer, IntegerLiterals) {
  const auto tokens = lexText("0 42 0x1F 0755 100UL 7u");
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_EQ(tokens[0].int_value, 0);
  EXPECT_EQ(tokens[1].int_value, 42);
  EXPECT_EQ(tokens[2].int_value, 31);
  EXPECT_EQ(tokens[3].int_value, 493);
  EXPECT_EQ(tokens[4].int_value, 100);
  EXPECT_EQ(tokens[5].int_value, 7);
  for (const Token& t : tokens) EXPECT_EQ(t.kind, TokenKind::IntLiteral);
}

TEST(Lexer, CharLiterals) {
  const auto tokens = lexText(R"('a' '\n' '\0' '\'')");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].int_value, 'a');
  EXPECT_EQ(tokens[1].int_value, '\n');
  EXPECT_EQ(tokens[2].int_value, 0);
  EXPECT_EQ(tokens[3].int_value, '\'');
}

TEST(Lexer, StringLiterals) {
  const auto tokens = lexText(R"("hello" "a\tb" "")");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "hello");
  EXPECT_EQ(tokens[1].text, "a\tb");
  EXPECT_EQ(tokens[2].text, "");
}

TEST(Lexer, LiteralTextIsTheDecodedValue) {
  SourceManager sm;
  DiagnosticEngine diags;
  const std::string source = R"("plain" "esc\"aped\\" 'q' '\t' '\0' 42u)";
  const FileId file = sm.addBuffer("lit.c", source);
  const auto tokens = Lexer(sm, file, diags).lexAll();
  ASSERT_EQ(tokens.size(), 6u);
  EXPECT_FALSE(diags.hasErrors());
  EXPECT_EQ(tokens[0].text, "plain");
  EXPECT_EQ(tokens[1].text, "esc\"aped\\");
  EXPECT_EQ(tokens[2].text, "q");
  EXPECT_EQ(tokens[3].text, "\t");
  EXPECT_EQ(tokens[4].text, std::string(1, '\0'));
  EXPECT_EQ(tokens[5].text, "42u");
  // Text equal to its spelling views the file; decoded text does not.
  const std::string_view buffer = sm.contents(file);
  const auto inBuffer = [&](std::string_view text) {
    return text.data() >= buffer.data() && text.data() < buffer.data() + buffer.size();
  };
  EXPECT_TRUE(inBuffer(tokens[0].text));
  EXPECT_FALSE(inBuffer(tokens[1].text));
  EXPECT_TRUE(inBuffer(tokens[2].text));
  EXPECT_FALSE(inBuffer(tokens[3].text));
  EXPECT_TRUE(inBuffer(tokens[5].text));
}

TEST(Lexer, OperatorsMaximalMunch) {
  const auto tokens = lexText("<<= >>= << >> <= >= == != && || |= &= ^= -> ++ -- ...");
  const TokenKind expected[] = {
      TokenKind::ShlAssign, TokenKind::ShrAssign, TokenKind::Shl, TokenKind::Shr,
      TokenKind::LessEqual, TokenKind::GreaterEqual, TokenKind::EqualEqual, TokenKind::BangEqual,
      TokenKind::AmpAmp, TokenKind::PipePipe, TokenKind::PipeAssign, TokenKind::AmpAssign,
      TokenKind::CaretAssign, TokenKind::Arrow, TokenKind::PlusPlus, TokenKind::MinusMinus,
      TokenKind::Ellipsis,
  };
  ASSERT_EQ(tokens.size(), std::size(expected));
  for (std::size_t i = 0; i < tokens.size(); ++i) EXPECT_EQ(tokens[i].kind, expected[i]) << i;
}

TEST(Lexer, CommentsAreSkipped) {
  const auto tokens = lexText("a // line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, LocationsAndLineStart) {
  const auto tokens = lexText("one two\nthree");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].loc.line, 1u);
  EXPECT_EQ(tokens[0].loc.column, 1u);
  EXPECT_TRUE(tokens[0].start_of_line);
  EXPECT_EQ(tokens[1].loc.column, 5u);
  EXPECT_FALSE(tokens[1].start_of_line);
  EXPECT_EQ(tokens[2].loc.line, 2u);
  EXPECT_TRUE(tokens[2].start_of_line);
}

TEST(Lexer, UnterminatedCommentIsAnError) {
  DiagnosticEngine diags;
  lexText("a /* never closed", &diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, UnterminatedStringIsAnError) {
  DiagnosticEngine diags;
  lexText("\"oops\n", &diags);
  EXPECT_TRUE(diags.hasErrors());
}

TEST(Lexer, UnknownCharacterIsSkippedWithError) {
  DiagnosticEngine diags;
  const auto tokens = lexText("a @ b", &diags);
  EXPECT_TRUE(diags.hasErrors());
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, HashTokenAtLineStart) {
  const auto tokens = lexText("#define X 1");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::Hash);
  EXPECT_TRUE(tokens[0].start_of_line);
  EXPECT_EQ(tokens[1].text, "define");
}

// Property-style sweep: every single-operator string lexes back to
// exactly one token whose name equals its spelling.
class LexerOperatorRoundTrip : public ::testing::TestWithParam<TokenKind> {};

TEST_P(LexerOperatorRoundTrip, SpellingLexesToKind) {
  const TokenKind kind = GetParam();
  const auto tokens = lexText(tokenKindName(kind));
  ASSERT_EQ(tokens.size(), 1u) << tokenKindName(kind);
  EXPECT_EQ(tokens[0].kind, kind);
  EXPECT_EQ(tokens[0].text, tokenKindName(kind));
}

INSTANTIATE_TEST_SUITE_P(
    Operators, LexerOperatorRoundTrip,
    ::testing::Values(TokenKind::Plus, TokenKind::Minus, TokenKind::Star, TokenKind::Slash,
                      TokenKind::Percent, TokenKind::Amp, TokenKind::Pipe, TokenKind::Caret,
                      TokenKind::Tilde, TokenKind::Bang, TokenKind::Shl, TokenKind::Shr,
                      TokenKind::Less, TokenKind::Greater, TokenKind::LessEqual,
                      TokenKind::GreaterEqual, TokenKind::EqualEqual, TokenKind::BangEqual,
                      TokenKind::AmpAmp, TokenKind::PipePipe, TokenKind::Assign,
                      TokenKind::PlusAssign, TokenKind::MinusAssign, TokenKind::StarAssign,
                      TokenKind::SlashAssign, TokenKind::PercentAssign, TokenKind::AmpAssign,
                      TokenKind::PipeAssign, TokenKind::CaretAssign, TokenKind::ShlAssign,
                      TokenKind::ShrAssign, TokenKind::PlusPlus, TokenKind::MinusMinus,
                      TokenKind::Arrow, TokenKind::Dot, TokenKind::Comma, TokenKind::Semicolon,
                      TokenKind::Colon, TokenKind::Question, TokenKind::LParen, TokenKind::RParen,
                      TokenKind::LBrace, TokenKind::RBrace, TokenKind::LBracket,
                      TokenKind::RBracket));

}  // namespace
}  // namespace fsdep::lex
