// A deliberately small C preprocessor: object-like #define, #undef,
// #include "..." via a pluggable resolver, and #ifdef/#ifndef/#else/#endif
// (enough for header guards and feature gates in the corpus). Function-like
// macros are not supported; the corpus uses real functions and enums, which
// also gives the taint analysis more to chew on.
//
// Output tokens view the SourceManager's bytes (lex/token.h), macro
// expansions included, so they stay valid after the Preprocessor is gone.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "lex/lexer.h"
#include "lex/token.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"
#include "support/strings.h"

namespace fsdep::lex {

/// Resolves an #include'd name to file contents, or nullopt when unknown.
using IncludeResolver = std::function<std::optional<std::string>(std::string_view name)>;

class Preprocessor {
 public:
  Preprocessor(SourceManager& sm, DiagnosticEngine& diags, IncludeResolver resolver);

  /// Pre-defines an object-like macro (like -D on a compiler command line).
  void defineMacro(const std::string& name, const std::string& replacement_text);

  /// Tokenizes `file` with all directives processed and macros expanded.
  std::vector<Token> tokenize(FileId file);

  [[nodiscard]] bool isMacroDefined(std::string_view name) const {
    return macros_.contains(name);
  }

 private:
  struct Macro {
    std::vector<Token> replacement;
  };

  void processFile(FileId file, std::vector<Token>& out, int depth);
  void emitToken(const Token& token, std::vector<Token>& out);
  void expandMacro(std::string_view name, SourceLoc use_loc, std::vector<Token>& out,
                   std::vector<std::string_view>& expanding);

  /// Reads tokens until the end of the directive's line.
  static std::vector<Token> readDirectiveTail(Lexer& lexer, std::uint32_t line, Token& pending,
                                              bool& has_pending);

  [[nodiscard]] bool active() const;

  SourceManager& sm_;
  DiagnosticEngine& diags_;
  IncludeResolver resolver_;
  TextMap<Macro> macros_;  // looked up by a token's text
  std::unordered_set<std::string> included_once_;  // include-guard shortcut

  struct Conditional {
    bool parent_active;
    bool this_active;
    bool seen_else;
  };
  std::vector<Conditional> conditionals_;

  static constexpr int kMaxIncludeDepth = 16;
};

}  // namespace fsdep::lex
