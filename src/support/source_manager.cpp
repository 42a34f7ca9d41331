#include "support/source_manager.h"

#include <algorithm>

namespace fsdep {

FileId SourceManager::addBuffer(std::string name, std::string contents) {
  File f;
  f.name = std::move(name);
  f.contents = std::move(contents);
  f.line_offsets.push_back(0);
  for (std::size_t nl = f.contents.find('\n'); nl != std::string::npos;
       nl = f.contents.find('\n', nl + 1)) {
    f.line_offsets.push_back(nl + 1);
  }
  files_.push_back(std::move(f));
  return FileId{static_cast<std::uint32_t>(files_.size() - 1)};
}

std::string_view SourceManager::intern(std::string text) {
  return interned_.emplace_back(std::move(text));
}

FileId SourceManager::findByName(std::string_view name) const {
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].name == name) return FileId{static_cast<std::uint32_t>(i)};
  }
  return FileId{};
}

std::string_view SourceManager::name(FileId id) const {
  if (!id.valid() || id.value >= files_.size()) return {};
  return files_[id.value].name;
}

std::string_view SourceManager::contents(FileId id) const {
  if (!id.valid() || id.value >= files_.size()) return {};
  return files_[id.value].contents;
}

std::string_view SourceManager::lineText(FileId id, std::uint32_t line) const {
  if (!id.valid() || id.value >= files_.size() || line == 0) return {};
  const File& f = files_[id.value];
  if (line > f.line_offsets.size()) return {};
  const std::size_t begin = f.line_offsets[line - 1];
  std::size_t end = (line < f.line_offsets.size()) ? f.line_offsets[line] : f.contents.size();
  while (end > begin && (f.contents[end - 1] == '\n' || f.contents[end - 1] == '\r')) --end;
  return std::string_view(f.contents).substr(begin, end - begin);
}

std::string formatLoc(const SourceManager& sm, SourceLoc loc) {
  if (!loc.valid()) return "<unknown>";
  std::string out(sm.name(loc.file));
  out += ':';
  out += std::to_string(loc.line);
  out += ':';
  out += std::to_string(loc.column);
  return out;
}

}  // namespace fsdep
