// SourceManager owns the text of every file the frontend looks at and maps
// FileIds back to names and contents. Files may come from disk or from the
// embedded corpus; the manager does not care.
//
// It also owns the bytes every lex::Token views: file contents keep their
// address for the manager's lifetime (a Lexer reads a file while an
// #include adds another), and intern() holds the decoded text of literals
// whose value differs from their spelling.
#pragma once

#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "support/source_location.h"

namespace fsdep {

class SourceManager {
 public:
  /// Registers a buffer under `name` and returns its id. The buffer is
  /// copied; callers need not keep it alive.
  FileId addBuffer(std::string name, std::string contents);

  /// Returns a view of a copy of `text` that lives as long as the manager.
  std::string_view intern(std::string text);

  /// Returns the id of a previously registered file, or an invalid id.
  [[nodiscard]] FileId findByName(std::string_view name) const;

  [[nodiscard]] std::string_view name(FileId id) const;
  [[nodiscard]] std::string_view contents(FileId id) const;
  [[nodiscard]] std::size_t fileCount() const { return files_.size(); }

  /// Returns the text of line `line` (1-based) without the trailing newline,
  /// or an empty view when out of range. Used for diagnostics rendering.
  [[nodiscard]] std::string_view lineText(FileId id, std::uint32_t line) const;

 private:
  struct File {
    std::string name;
    std::string contents;
    std::vector<std::size_t> line_offsets;  // offset of each line start
  };
  // Deques: growing them never moves an element, so views into a
  // small (in-place) string stay valid.
  std::deque<File> files_;
  std::deque<std::string> interned_;
};

/// Renders "name:line:col" for error messages.
std::string formatLoc(const SourceManager& sm, SourceLoc loc);

}  // namespace fsdep
