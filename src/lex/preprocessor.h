// A deliberately small C preprocessor: object-like #define, #undef,
// #include "..." via a pluggable resolver, and #ifdef/#ifndef/#else/#endif
// (enough for header guards and feature gates in the corpus). Function-like
// macros are not supported; the corpus uses real functions and enums, which
// also gives the taint analysis more to chew on.
//
// Output tokens view the SourceManager's bytes (lex/token.h), macro
// expansions included, so they stay valid after the Preprocessor is gone.
//
// Expansion is iterative, with one frame per macro being expanded, and
// macros nest at most kMaxMacroDepth deep: a deeper chain is reported once
// ("macro expansion too deep") and the rest of that use's expansion is
// dropped.
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

  static constexpr std::size_t kMaxMacroDepth = 1000;

 private:
  struct Macro {
    std::vector<Token> replacement;
    /// Set while the macro is being expanded: a use of it inside its own
    /// expansion stays a plain identifier, like a real cpp.
    bool expanding = false;
  };

  void processFile(FileId file, std::vector<Token>& out, int depth);
  void emitToken(const Token& token, std::vector<Token>& out);
  void expandMacro(Macro& macro, SourceLoc use_loc, std::vector<Token>& out);

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

  /// The macros being expanded, innermost last, each with the index of
  /// its next replacement token (reused across expansions).
  struct ExpansionFrame {
    Macro* macro;
    std::size_t next;
  };
  std::vector<ExpansionFrame> expansion_;

  static constexpr int kMaxIncludeDepth = 16;
};

}  // namespace fsdep::lex
