#include <cctype>
#include <cmath>
#include <cstdlib>

#include "json/json.h"

namespace fsdep::json {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> parseDocument() {
    skipWhitespace();
    Result<Value> v = parseValue();
    if (!v.ok()) return v;
    skipWhitespace();
    if (pos_ != text_.size()) return fail("trailing characters after JSON value");
    return v;
  }

 private:
  Result<Value> parseValue() {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) {
          return fail("nesting too deep: more than " + std::to_string(kMaxDepth) +
                      " levels of arrays and objects");
        }
        ++depth_;
        Result<Value> value = text_[pos_] == '{' ? parseObject() : parseArray();
        --depth_;
        return value;
      }
      case '"': return parseString();
      case 't': return parseKeyword("true", Value(true));
      case 'f': return parseKeyword("false", Value(false));
      case 'n': return parseKeyword("null", Value(nullptr));
      default: return parseNumber();
    }
  }

  Result<Value> parseObject() {
    ++pos_;  // consume '{'
    Object obj;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    while (true) {
      skipWhitespace();
      if (peek() != '"') return fail("expected string key in object");
      Result<Value> key = parseString();
      if (!key.ok()) return key;
      skipWhitespace();
      if (peek() != ':') return fail("expected ':' after object key");
      ++pos_;
      skipWhitespace();
      Result<Value> value = parseValue();
      if (!value.ok()) return value;
      obj[key.value().asString()] = std::move(value).take();
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return Value(std::move(obj));
      }
      return fail("expected ',' or '}' in object");
    }
  }

  Result<Value> parseArray() {
    ++pos_;  // consume '['
    Array arr;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    while (true) {
      skipWhitespace();
      Result<Value> value = parseValue();
      if (!value.ok()) return value;
      arr.push_back(std::move(value).take());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return Value(std::move(arr));
      }
      return fail("expected ',' or ']' in array");
    }
  }

  Result<Value> parseString() {
    ++pos_;  // consume '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(10 + h - 'a');
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(10 + h - 'A');
              else return fail("bad hex digit in \\u escape");
            }
            appendUtf8(out, code);
            break;
          }
          default: return fail("unknown escape character");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  static void appendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<Value> parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool is_double = false;
    if (peek() == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      is_double = true;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) return fail("malformed number");
    std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      return Value(std::strtod(token.c_str(), nullptr));
    }
    errno = 0;
    const long long v = std::strtoll(token.c_str(), nullptr, 10);
    if (errno == ERANGE) return fail("integer out of range");
    return Value(static_cast<std::int64_t>(v));
  }

  Result<Value> parseKeyword(std::string_view keyword, Value value) {
    if (text_.substr(pos_, keyword.size()) != keyword) return fail("unknown keyword");
    pos_ += keyword.size();
    return value;
  }

  void skipWhitespace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Result<Value> fail(std::string message) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return makeError("json parse error at line " + std::to_string(line) + ": " + std::move(message));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< arrays and objects open at pos_
};

}  // namespace

Result<Value> parse(std::string_view text) { return Parser(text).parseDocument(); }

}  // namespace fsdep::json
