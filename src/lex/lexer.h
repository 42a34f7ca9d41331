// Raw tokenizer for a single source buffer. Preprocessing (includes,
// macros, conditionals) is layered on top in lex/preprocessor.h.
//
// Tokens view their text (see lex/token.h): the lexer copies no bytes
// except the decoded text of a literal with escapes, which it interns in
// the SourceManager.
#pragma once

#include <vector>

#include "lex/token.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

namespace fsdep::lex {

class Lexer {
 public:
  Lexer(SourceManager& sm, FileId file, DiagnosticEngine& diags);

  /// Returns the next raw token; Eof forever after the end.
  Token next();

  /// Tokenizes the whole buffer (excluding the final Eof).
  std::vector<Token> lexAll();

 private:
  [[nodiscard]] char peek(std::size_t ahead = 0) const;
  char advance();
  bool match(char expected);
  [[nodiscard]] SourceLoc here() const;

  /// Consumes bytes up to `end`, none of which is a newline.
  std::string_view take(std::size_t end);
  std::string_view lexNumber(std::int64_t& value);
  Token lexCharLiteral(SourceLoc loc);
  Token lexStringLiteral(SourceLoc loc);
  void skipWhitespaceAndComments();

  SourceManager& sm_;
  FileId file_;
  DiagnosticEngine& diags_;
  std::string_view text_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t column_ = 1;
  bool at_line_start_ = true;
};

}  // namespace fsdep::lex
