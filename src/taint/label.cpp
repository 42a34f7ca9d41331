#include "taint/label.h"

namespace fsdep::taint {

LabelId LabelTable::intern(std::string name) {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const LabelId id = static_cast<LabelId>(names_.size());
  index_.emplace(name, id);
  names_.push_back(std::move(name));
  return id;
}

LabelId LabelTable::internParam(std::string_view qualified_param) {
  std::string name;
  name.reserve(6 + qualified_param.size());
  name.append("param:").append(qualified_param);
  return intern(std::move(name));
}

LabelId LabelTable::internField(std::string_view record, std::string_view field) {
  std::string name;
  name.reserve(6 + record.size() + 1 + field.size());
  name.append("field:").append(record).append(".").append(field);
  return intern(std::move(name));
}

bool LabelTable::isParam(LabelId id) const { return names_[id].starts_with("param:"); }
bool LabelTable::isField(LabelId id) const { return names_[id].starts_with("field:"); }

std::string_view LabelTable::payload(LabelId id) const {
  std::string_view n = names_[id];
  const std::size_t colon = n.find(':');
  return colon == std::string_view::npos ? n : n.substr(colon + 1);
}

FieldKeyId FieldKeyTable::intern(std::string_view record, std::string_view field) {
  std::string key;
  key.reserve(record.size() + 1 + field.size());
  key += record;
  key += '.';
  key += field;
  return internKey(std::move(key));
}

FieldKeyId FieldKeyTable::internKey(std::string key) {
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const FieldKeyId id = static_cast<FieldKeyId>(keys_.size());
  index_.emplace(key, id);
  keys_.push_back(std::move(key));
  return id;
}

void LabelSet::grow(std::size_t need) {
  const std::size_t doubled = static_cast<std::size_t>(nwords_) * 2;
  const std::size_t newcap = need > doubled ? need : doubled;
  auto* fresh = new std::uint64_t[newcap];
  const std::uint64_t* old = words();
  for (std::size_t i = 0; i < nwords_; ++i) fresh[i] = old[i];
  for (std::size_t i = nwords_; i < newcap; ++i) fresh[i] = 0;
  release();
  heap_ = fresh;
  nwords_ = static_cast<std::uint32_t>(newcap);
}

void LabelSet::copyFrom(const LabelSet& other) {
  count_ = other.count_;
  nwords_ = other.nwords_;
  if (other.isInline()) {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  } else {
    heap_ = new std::uint64_t[nwords_];
    for (std::size_t i = 0; i < nwords_; ++i) heap_[i] = other.heap_[i];
  }
}

void LabelSet::moveFrom(LabelSet& other) noexcept {
  count_ = other.count_;
  nwords_ = other.nwords_;
  if (other.isInline()) {
    inline_[0] = other.inline_[0];
    inline_[1] = other.inline_[1];
  } else {
    heap_ = other.heap_;
  }
  other.count_ = 0;
  other.nwords_ = kInlineWords;
  other.inline_[0] = 0;
  other.inline_[1] = 0;
}

bool unionInto(LabelSet& into, const LabelSet& from) {
  if (from.count_ == 0) return false;
  if (into.nwords_ < from.nwords_) into.grow(from.nwords_);
  const std::uint64_t* src = from.words();
  std::uint64_t* dst = into.words();
  std::uint32_t added = 0;
  for (std::size_t i = 0; i < from.nwords_; ++i) {
    const std::uint64_t grown = src[i] & ~dst[i];
    if (grown != 0) {
      dst[i] |= grown;
      added += static_cast<std::uint32_t>(std::popcount(grown));
    }
  }
  into.count_ += added;
  return added != 0;
}

std::string labelSetToString(const LabelTable& table, const LabelSet& set) {
  std::string out = "{";
  bool first = true;
  for (const LabelId id : set) {
    if (!first) out += ", ";
    first = false;
    out += table.name(id);
  }
  out += '}';
  return out;
}

}  // namespace fsdep::taint
