#include "support/strings.h"

#include <cctype>
#include <cstdio>

namespace fsdep {

std::vector<std::string_view> splitString(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      break;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trimString(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) text.remove_suffix(1);
  return text;
}

std::string joinStrings(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::optional<std::int64_t> parseInt64(std::string_view text) {
  text = trimString(text);
  if (text.empty()) return std::nullopt;
  bool negative = false;
  if (text.front() == '+' || text.front() == '-') {
    negative = text.front() == '-';
    text.remove_prefix(1);
    if (text.empty()) return std::nullopt;
  }
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.size() > 1 && text[0] == '0') {
    base = 8;
    text.remove_prefix(1);
    if (text.empty()) return 0;
  }
  std::int64_t value = 0;
  for (char c : text) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else if (c >= 'A' && c <= 'F') digit = 10 + (c - 'A');
    if (digit < 0 || digit >= base) return std::nullopt;
    if (value > (INT64_MAX - digit) / base) return std::nullopt;
    value = value * base + digit;
  }
  return negative ? -value : value;
}

std::string formatWithCommas(std::int64_t value) {
  std::string digits = std::to_string(value < 0 ? -value : value);
  std::string out;
  const std::size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  out.append(digits, 0, first_group);
  for (std::size_t i = first_group; i < digits.size(); i += 3) {
    out += ',';
    out.append(digits, i, 3);
  }
  if (value < 0) out.insert(out.begin(), '-');
  return out;
}

std::string formatPercent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace fsdep
