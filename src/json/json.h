// A small JSON value model. The paper stores extracted dependencies "in JSON
// files which describe both the parameters and the associated constraints"
// (§4.1); this module is the serialization substrate for that.
//
// Objects preserve insertion order so emitted files are stable and diffable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "support/result.h"

namespace fsdep::json {

class Value;

using Array = std::vector<Value>;

/// Insertion-ordered string->Value map. Deep-copyable.
class Object {
 public:
  Object() = default;
  Object(const Object& other);
  Object& operator=(const Object& other);
  Object(Object&&) noexcept = default;
  Object& operator=(Object&&) noexcept = default;
  ~Object() = default;

  Value& operator[](const std::string& key);
  [[nodiscard]] const Value* find(std::string_view key) const;
  [[nodiscard]] Value* find(std::string_view key);
  [[nodiscard]] bool contains(std::string_view key) const { return find(key) != nullptr; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }
  [[nodiscard]] auto begin() { return entries_.begin(); }
  [[nodiscard]] auto end() { return entries_.end(); }

  bool operator==(const Object& other) const;

 private:
  std::vector<std::pair<std::string, std::unique_ptr<Value>>> entries_;
};

/// A JSON value: null, bool, integer, double, string, array, or object.
/// Integers are kept distinct from doubles so ids and counts round-trip.
class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}               // NOLINT
  Value(bool b) : data_(b) {}                             // NOLINT
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}   // NOLINT
  Value(std::int64_t i) : data_(i) {}                     // NOLINT
  Value(std::uint64_t i) : data_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(double d) : data_(d) {}                           // NOLINT
  Value(const char* s) : data_(std::string(s)) {}         // NOLINT
  Value(std::string s) : data_(std::move(s)) {}           // NOLINT
  Value(std::string_view s) : data_(std::string(s)) {}    // NOLINT
  Value(Array a) : data_(std::move(a)) {}                 // NOLINT
  Value(Object o) : data_(std::move(o)) {}                // NOLINT

  [[nodiscard]] bool isNull() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool isBool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool isInt() const { return std::holds_alternative<std::int64_t>(data_); }
  [[nodiscard]] bool isDouble() const { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool isNumber() const { return isInt() || isDouble(); }
  [[nodiscard]] bool isString() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool isArray() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool isObject() const { return std::holds_alternative<Object>(data_); }

  [[nodiscard]] bool asBool(bool fallback = false) const;
  [[nodiscard]] std::int64_t asInt(std::int64_t fallback = 0) const;
  [[nodiscard]] double asDouble(double fallback = 0.0) const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] Array& asArray();
  [[nodiscard]] const Object& asObject() const;
  [[nodiscard]] Object& asObject();

  bool operator==(const Value& other) const;

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object> data_;
};

/// Arrays and objects nest at most this deep in a parsed document. The
/// parser recurses once per level, so the budget bounds its stack (and
/// the recursive destruction of the value) whatever the input.
inline constexpr std::size_t kMaxDepth = 512;

/// Parses a JSON document. Strict: trailing garbage is an error, and so
/// is nesting deeper than kMaxDepth ("nesting too deep").
Result<Value> parse(std::string_view text);

/// Serializes with 2-space indentation and a trailing newline.
std::string writePretty(const Value& value);

/// Serializes without any whitespace.
std::string writeCompact(const Value& value);

}  // namespace fsdep::json
