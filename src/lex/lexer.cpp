#include "lex/lexer.h"

#include <array>

namespace fsdep::lex {

namespace {

// Character classes of the "C" locale, from one table lookup per byte.
enum CharClass : std::uint8_t {
  kIdentStart = 1 << 0,  ///< A-Z a-z _
  kDigit = 1 << 1,       ///< 0-9
  kHexDigit = 1 << 2,    ///< 0-9 a-f A-F
  kBlank = 1 << 3,       ///< space, tab, carriage return (newline is apart)
};

constexpr std::array<std::uint8_t, 256> makeCharClasses() {
  std::array<std::uint8_t, 256> table{};
  for (int c = 'a'; c <= 'z'; ++c) table[c] |= kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) table[c] |= kIdentStart;
  table['_'] |= kIdentStart;
  for (int c = '0'; c <= '9'; ++c) table[c] |= kDigit | kHexDigit;
  for (int c = 'a'; c <= 'f'; ++c) table[c] |= kHexDigit;
  for (int c = 'A'; c <= 'F'; ++c) table[c] |= kHexDigit;
  table[' '] = table['\t'] = table['\r'] = kBlank;
  return table;
}

constexpr std::array<std::uint8_t, 256> kCharClasses = makeCharClasses();

bool isClass(char c, std::uint8_t classes) {
  return (kCharClasses[static_cast<unsigned char>(c)] & classes) != 0;
}

}  // namespace

Lexer::Lexer(SourceManager& sm, FileId file, DiagnosticEngine& diags)
    : sm_(sm), file_(file), diags_(diags), text_(sm.contents(file)) {}

char Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  const char c = text_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
    at_line_start_ = true;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::match(char expected) {
  if (peek() != expected) return false;
  advance();
  return true;
}

SourceLoc Lexer::here() const { return SourceLoc{file_, line_, column_}; }

std::string_view Lexer::take(std::size_t end) {
  const std::string_view run = text_.substr(pos_, end - pos_);
  column_ += static_cast<std::uint32_t>(run.size());
  pos_ = end;
  return run;
}

void Lexer::skipWhitespaceAndComments() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (isClass(c, kBlank)) {
      ++pos_;
      ++column_;
    } else if (c == '\n') {
      advance();
    } else if (c == '\\' && peek(1) == '\n') {
      advance();
      advance();  // line continuation
    } else if (c == '/' && peek(1) == '/') {
      const std::size_t newline = text_.find('\n', pos_);
      take(newline == std::string_view::npos ? text_.size() : newline);
    } else if (c == '/' && peek(1) == '*') {
      const SourceLoc start = here();
      advance();
      advance();
      bool closed = false;
      while (pos_ < text_.size()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          closed = true;
          break;
        }
        advance();
      }
      if (!closed) diags_.error(start, "unterminated block comment");
    } else {
      return;
    }
  }
}

std::string_view Lexer::lexNumber(std::int64_t& value) {
  const auto at = [this](std::size_t i) { return i < text_.size() ? text_[i] : '\0'; };
  std::size_t end = pos_;
  std::uint64_t v = 0;  // wraps like the two's-complement value it becomes
  if (at(end) == '0' && (at(end + 1) == 'x' || at(end + 1) == 'X')) {
    end += 2;
    while (isClass(at(end), kHexDigit)) {
      const char c = text_[end++];
      const int digit = c <= '9' ? c - '0' : c >= 'a' ? 10 + (c - 'a') : 10 + (c - 'A');
      v = v * 16 + static_cast<std::uint64_t>(digit);
    }
  } else if (at(end) == '0' && isClass(at(end + 1), kDigit)) {
    ++end;
    while (at(end) >= '0' && at(end) <= '7') {
      v = v * 8 + static_cast<std::uint64_t>(text_[end++] - '0');
    }
  } else {
    while (isClass(at(end), kDigit)) v = v * 10 + static_cast<std::uint64_t>(text_[end++] - '0');
  }
  // Integer suffixes (U, L, UL, ULL, ...) — accepted and ignored.
  while (at(end) == 'u' || at(end) == 'U' || at(end) == 'l' || at(end) == 'L') ++end;
  value = static_cast<std::int64_t>(v);
  return take(end);
}

Token Lexer::lexCharLiteral(SourceLoc loc) {
  advance();  // opening quote
  Token t;
  t.kind = TokenKind::CharLiteral;
  t.loc = loc;
  if (peek() == '\\') {
    advance();
    const char e = advance();
    switch (e) {
      case 'n': t.int_value = '\n'; break;
      case 't': t.int_value = '\t'; break;
      case 'r': t.int_value = '\r'; break;
      case '0': t.int_value = '\0'; break;
      case '\\': t.int_value = '\\'; break;
      case '\'': t.int_value = '\''; break;
      case '"': t.int_value = '"'; break;
      default:
        diags_.error(loc, std::string("unknown escape '\\") + e + "' in char literal");
        t.int_value = e;
    }
  } else if (pos_ < text_.size()) {
    t.text = text_.substr(pos_, 1);  // the value is its own spelling
    t.int_value = advance();
  }
  if (!match('\'')) diags_.error(loc, "unterminated char literal");
  if (t.text.empty()) t.text = sm_.intern(std::string(1, static_cast<char>(t.int_value)));
  return t;
}

Token Lexer::lexStringLiteral(SourceLoc loc) {
  advance();  // opening quote
  Token t;
  t.kind = TokenKind::StringLiteral;
  t.loc = loc;
  std::size_t end = pos_;
  while (end < text_.size() && text_[end] != '"' && text_[end] != '\n' && text_[end] != '\\') ++end;
  if (end == text_.size() || text_[end] != '\\') {
    t.text = take(end);  // no escapes: the value is its own spelling
  } else {
    std::string value;
    while (pos_ < text_.size() && peek() != '"' && peek() != '\n') {
      char c = advance();
      if (c == '\\' && pos_ < text_.size()) {
        const char e = advance();
        switch (e) {
          case 'n': value += '\n'; break;
          case 't': value += '\t'; break;
          case 'r': value += '\r'; break;
          case '0': value += '\0'; break;
          case '\\': value += '\\'; break;
          case '"': value += '"'; break;
          case '\'': value += '\''; break;
          default: value += e;
        }
      } else {
        value += c;
      }
    }
    t.text = sm_.intern(std::move(value));
  }
  if (!match('"')) diags_.error(loc, "unterminated string literal");
  return t;
}

Token Lexer::next() {
  while (true) {
    skipWhitespaceAndComments();
    const bool start_of_line = at_line_start_;
    at_line_start_ = false;
    Token t;
    t.loc = here();
    if (pos_ >= text_.size()) {
      t.start_of_line = start_of_line;
      return t;  // Eof
    }

    const char c = text_[pos_];
    if (isClass(c, kIdentStart)) {
      std::size_t end = pos_ + 1;
      while (end < text_.size() && isClass(text_[end], kIdentStart | kDigit)) ++end;
      t.text = take(end);
      t.kind = classifyIdentifier(t.text);
    } else if (isClass(c, kDigit)) {
      t.kind = TokenKind::IntLiteral;
      t.text = lexNumber(t.int_value);
    } else if (c == '\'') {
      t = lexCharLiteral(t.loc);
    } else if (c == '"') {
      t = lexStringLiteral(t.loc);
    } else {
      const std::size_t start = pos_;
      advance();
      TokenKind kind;
      switch (c) {
        case '(': kind = TokenKind::LParen; break;
        case ')': kind = TokenKind::RParen; break;
        case '{': kind = TokenKind::LBrace; break;
        case '}': kind = TokenKind::RBrace; break;
        case '[': kind = TokenKind::LBracket; break;
        case ']': kind = TokenKind::RBracket; break;
        case ';': kind = TokenKind::Semicolon; break;
        case ',': kind = TokenKind::Comma; break;
        case '?': kind = TokenKind::Question; break;
        case '~': kind = TokenKind::Tilde; break;
        case '#': kind = TokenKind::Hash; break;
        case ':': kind = TokenKind::Colon; break;
        case '.':
          if (peek() == '.' && peek(1) == '.') {
            advance();
            advance();
            kind = TokenKind::Ellipsis;
          } else {
            kind = TokenKind::Dot;
          }
          break;
        case '+':
          kind = match('+') ? TokenKind::PlusPlus
                 : match('=') ? TokenKind::PlusAssign
                              : TokenKind::Plus;
          break;
        case '-':
          kind = match('-') ? TokenKind::MinusMinus
                 : match('=') ? TokenKind::MinusAssign
                 : match('>') ? TokenKind::Arrow
                              : TokenKind::Minus;
          break;
        case '*': kind = match('=') ? TokenKind::StarAssign : TokenKind::Star; break;
        case '/': kind = match('=') ? TokenKind::SlashAssign : TokenKind::Slash; break;
        case '%': kind = match('=') ? TokenKind::PercentAssign : TokenKind::Percent; break;
        case '^': kind = match('=') ? TokenKind::CaretAssign : TokenKind::Caret; break;
        case '!': kind = match('=') ? TokenKind::BangEqual : TokenKind::Bang; break;
        case '=': kind = match('=') ? TokenKind::EqualEqual : TokenKind::Assign; break;
        case '&':
          kind = match('&') ? TokenKind::AmpAmp
                 : match('=') ? TokenKind::AmpAssign
                              : TokenKind::Amp;
          break;
        case '|':
          kind = match('|') ? TokenKind::PipePipe
                 : match('=') ? TokenKind::PipeAssign
                              : TokenKind::Pipe;
          break;
        case '<':
          if (match('<')) {
            kind = match('=') ? TokenKind::ShlAssign : TokenKind::Shl;
          } else {
            kind = match('=') ? TokenKind::LessEqual : TokenKind::Less;
          }
          break;
        case '>':
          if (match('>')) {
            kind = match('=') ? TokenKind::ShrAssign : TokenKind::Shr;
          } else {
            kind = match('=') ? TokenKind::GreaterEqual : TokenKind::Greater;
          }
          break;
        default:
          diags_.error(t.loc, std::string("unexpected character '") + c + "'");
          continue;
      }
      t.kind = kind;
      // The bytes consumed are the operator's spelling; view the static copy.
      t.text = std::string_view(tokenKindName(kind), pos_ - start);
    }
    t.start_of_line = start_of_line;
    return t;
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> tokens;
  while (true) {
    Token t = next();
    if (t.isEof()) break;
    tokens.push_back(t);
  }
  return tokens;
}

}  // namespace fsdep::lex
