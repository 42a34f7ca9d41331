#include "lex/preprocessor.h"

namespace fsdep::lex {

Preprocessor::Preprocessor(SourceManager& sm, DiagnosticEngine& diags, IncludeResolver resolver)
    : sm_(sm), diags_(diags), resolver_(std::move(resolver)) {}

void Preprocessor::defineMacro(const std::string& name, const std::string& replacement_text) {
  const FileId file = sm_.addBuffer("<predefined:" + name + ">", replacement_text);
  Lexer lexer(sm_, file, diags_);
  macros_[name] = Macro{lexer.lexAll()};
}

std::vector<Token> Preprocessor::tokenize(FileId file) {
  std::vector<Token> out;
  processFile(file, out, 0);
  if (!conditionals_.empty()) {
    diags_.error(SourceLoc{file, 1, 1}, "unterminated #if block at end of input");
    conditionals_.clear();
  }
  return out;
}

bool Preprocessor::active() const {
  for (const Conditional& c : conditionals_) {
    if (!c.parent_active || !c.this_active) return false;
  }
  return true;
}

std::vector<Token> Preprocessor::readDirectiveTail(Lexer& lexer, std::uint32_t line, Token& pending,
                                                   bool& has_pending) {
  std::vector<Token> tail;
  while (true) {
    Token t = lexer.next();
    if (t.isEof()) break;
    if (t.loc.line != line || t.start_of_line) {
      pending = t;
      has_pending = true;
      break;
    }
    tail.push_back(t);
  }
  return tail;
}

void Preprocessor::processFile(FileId file, std::vector<Token>& out, int depth) {
  if (depth > kMaxIncludeDepth) {
    diags_.error(SourceLoc{file, 1, 1}, "#include nesting too deep");
    return;
  }
  const std::size_t conditional_depth_at_entry = conditionals_.size();

  Lexer lexer(sm_, file, diags_);
  Token pending;
  bool has_pending = false;

  while (true) {
    const Token t = has_pending ? pending : lexer.next();
    has_pending = false;
    if (t.isEof()) break;

    if (t.is(TokenKind::Hash) && t.start_of_line) {
      const std::uint32_t line = t.loc.line;
      Token name_tok = lexer.next();
      if (name_tok.isEof() || name_tok.loc.line != line) {
        if (!name_tok.isEof()) {
          pending = name_tok;
          has_pending = true;
        }
        continue;  // a lone '#' line is a null directive
      }
      std::vector<Token> tail = readDirectiveTail(lexer, line, pending, has_pending);
      const std::string_view directive = name_tok.text;

      if (directive == "include") {
        if (!active()) continue;
        if (tail.size() != 1 || !tail[0].is(TokenKind::StringLiteral)) {
          diags_.error(name_tok.loc, "#include expects a \"file\" operand");
          continue;
        }
        const std::string inc_name(tail[0].text);
        if (included_once_.contains(inc_name)) continue;
        std::optional<std::string> contents = resolver_ ? resolver_(inc_name) : std::nullopt;
        if (!contents) {
          diags_.error(tail[0].loc, "cannot resolve #include \"" + inc_name + "\"");
          continue;
        }
        included_once_.insert(inc_name);
        FileId inc_file = sm_.findByName(inc_name);
        if (!inc_file.valid()) inc_file = sm_.addBuffer(inc_name, *std::move(contents));
        processFile(inc_file, out, depth + 1);
      } else if (directive == "define") {
        if (!active()) continue;
        if (tail.empty() || !tail[0].is(TokenKind::Identifier)) {
          diags_.error(name_tok.loc, "#define expects a macro name");
          continue;
        }
        Macro m;
        m.replacement.assign(tail.begin() + 1, tail.end());
        macros_.insert_or_assign(std::string(tail[0].text), std::move(m));
      } else if (directive == "undef") {
        if (!active()) continue;
        if (tail.size() == 1 && tail[0].is(TokenKind::Identifier)) {
          if (const auto it = macros_.find(tail[0].text); it != macros_.end()) macros_.erase(it);
        } else {
          diags_.error(name_tok.loc, "#undef expects a macro name");
        }
      } else if (directive == "ifdef" || directive == "ifndef") {
        bool defined = tail.size() == 1 && tail[0].is(TokenKind::Identifier) &&
                       macros_.contains(tail[0].text);
        if (tail.size() != 1) {
          diags_.error(name_tok.loc, "#" + std::string(directive) + " expects one name");
        }
        const bool cond = directive == "ifdef" ? defined : !defined;
        conditionals_.push_back(Conditional{active(), cond, false});
      } else if (directive == "else") {
        if (conditionals_.size() <= conditional_depth_at_entry) {
          diags_.error(name_tok.loc, "#else without matching #ifdef");
        } else {
          Conditional& c = conditionals_.back();
          if (c.seen_else) diags_.error(name_tok.loc, "duplicate #else");
          c.seen_else = true;
          c.this_active = !c.this_active;
        }
      } else if (directive == "endif") {
        if (conditionals_.size() <= conditional_depth_at_entry) {
          diags_.error(name_tok.loc, "#endif without matching #ifdef");
        } else {
          conditionals_.pop_back();
        }
      } else if (directive == "pragma") {
        // Ignored.
      } else {
        if (active()) diags_.error(name_tok.loc, "unknown directive #" + std::string(directive));
      }
      continue;
    }

    if (active()) emitToken(t, out);
  }

  if (conditionals_.size() != conditional_depth_at_entry) {
    diags_.error(SourceLoc{file, 1, 1}, "#ifdef block not closed before end of file");
    conditionals_.resize(conditional_depth_at_entry);
  }
}

void Preprocessor::emitToken(const Token& token, std::vector<Token>& out) {
  if (token.is(TokenKind::Identifier)) {
    if (const auto it = macros_.find(token.text); it != macros_.end()) {
      expandMacro(it->second, token.loc, out);
      return;
    }
  }
  out.push_back(token);
}

void Preprocessor::expandMacro(Macro& macro, SourceLoc use_loc, std::vector<Token>& out) {
  macro.expanding = true;
  expansion_.push_back(ExpansionFrame{&macro, 0});
  while (!expansion_.empty()) {
    ExpansionFrame& frame = expansion_.back();
    if (frame.next == frame.macro->replacement.size()) {
      frame.macro->expanding = false;
      expansion_.pop_back();
      continue;
    }
    const Token& rep = frame.macro->replacement[frame.next++];
    const auto it = rep.is(TokenKind::Identifier) ? macros_.find(rep.text) : macros_.end();
    if (it == macros_.end()) {
      Token t = rep;
      t.loc = use_loc;  // report diagnostics at the use site
      out.push_back(t);
    } else if (it->second.expanding) {
      // A use inside its own expansion stays a plain identifier.
      Token t;
      t.kind = TokenKind::Identifier;
      t.text = rep.text;
      t.loc = use_loc;
      out.push_back(t);
    } else if (expansion_.size() == kMaxMacroDepth) {
      diags_.error(use_loc, "macro expansion too deep: more than " +
                                std::to_string(kMaxMacroDepth) + " nested macros");
      for (const ExpansionFrame& open : expansion_) open.macro->expanding = false;
      expansion_.clear();
    } else {
      it->second.expanding = true;
      expansion_.push_back(ExpansionFrame{&it->second, 0});
    }
  }
}

}  // namespace fsdep::lex
