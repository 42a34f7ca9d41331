#include "support/strings.h"

#include <cctype>
#include <cstdio>

namespace fsdep {

std::string_view trimString(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) text.remove_suffix(1);
  return text;
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

std::string formatPercent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace fsdep
