// Tokens of the C subset understood by the fsdep frontend.
//
// The subset covers what real configuration-handling code in the Ext4
// ecosystem uses: integer arithmetic, structs, enums, pointers, control
// flow, getopt-style switches, and bitwise feature tests. It deliberately
// omits floating point, unions, bitfields, and function pointers.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "support/source_location.h"

namespace fsdep::lex {

enum class TokenKind : std::uint8_t {
  Eof,
  Identifier,
  IntLiteral,
  CharLiteral,
  StringLiteral,

  // Keywords.
  KwVoid, KwChar, KwShort, KwInt, KwLong, KwSigned, KwUnsigned,
  KwStruct, KwEnum, KwTypedef, KwStatic, KwConst, KwExtern,
  KwIf, KwElse, KwWhile, KwFor, KwDo, KwSwitch, KwCase, KwDefault,
  KwReturn, KwBreak, KwContinue, KwSizeof, KwGoto,

  // Punctuation and operators.
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Semicolon, Comma, Colon, Question,
  Arrow, Dot, Ellipsis,
  Plus, Minus, Star, Slash, Percent,
  Amp, Pipe, Caret, Tilde, Bang,
  Shl, Shr,
  Less, Greater, LessEqual, GreaterEqual, EqualEqual, BangEqual,
  AmpAmp, PipePipe,
  Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign,
  AmpAssign, PipeAssign, CaretAssign, ShlAssign, ShrAssign,
  PlusPlus, MinusMinus,
  Hash,
};

const char* tokenKindName(TokenKind kind);

/// Returns the keyword kind for `text`, or TokenKind::Identifier.
TokenKind classifyIdentifier(std::string_view text);

/// A token is a small value: its text is a view, never an owned copy.
/// Identifier, number and literal text views the SourceManager the token
/// was lexed from (a file buffer, or an interned copy for a string or
/// char literal whose decoded value differs from its spelling);
/// punctuation views the static spelling tokenKindName() returns. A token
/// is therefore valid exactly as long as its SourceManager.
struct Token {
  std::string_view text;       ///< identifier/number spelling, decoded literal, op spelling
  std::int64_t int_value = 0;  ///< for IntLiteral / CharLiteral
  SourceLoc loc;
  TokenKind kind = TokenKind::Eof;
  bool start_of_line = false;

  [[nodiscard]] bool is(TokenKind k) const { return kind == k; }
  [[nodiscard]] bool isEof() const { return kind == TokenKind::Eof; }
};
static_assert(std::is_trivially_copyable_v<Token>, "tokens are copied by value");

}  // namespace fsdep::lex
