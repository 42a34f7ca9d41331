// Small string helpers shared across fsdep modules.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace fsdep {

/// Hashes std::string keys and std::string_view probes alike, so a
/// container keyed by std::string is searched with a view (for example a
/// token's text) without building a string.
struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

template <typename V>
using TextMap = std::unordered_map<std::string, V, TextHash, std::equal_to<>>;
using TextSet = std::unordered_set<std::string, TextHash, std::equal_to<>>;

/// Removes leading/trailing ASCII whitespace.
std::string_view trimString(std::string_view text);

/// Parses a signed 64-bit integer in base 10/16/8 (C literal rules).
/// Returns nullopt on any malformed input or overflow.
std::optional<std::int64_t> parseInt64(std::string_view text);

/// Renders `value` as a percentage string like "7.8%" with one decimal.
std::string formatPercent(double fraction);

}  // namespace fsdep
