// Taint labels. Two families:
//   param:<component>.<name>       — a configuration parameter (the taint
//                                    sources of the paper's analysis)
//   field:<record>.<field>         — a shared FS metadata field; these are
//                                    the "bridge" labels that let the
//                                    extractor connect parameters of
//                                    different components (paper §4.1).
//
// LabelIds are dense (interned per Analyzer), so a label set is a chunked
// bitset: union/merge — the fixpoint hot operation — is O(words) of
// bitwise OR instead of a std::set node walk. Iteration yields ids in
// ascending order, exactly like the std::set it replaced, so extraction
// and traces stay deterministic.
//
// Storage is a two-word small buffer (128 labels) inline in the object:
// a component's label universe (its seeded parameters plus the metadata
// fields it touches) almost always fits, so the fixpoint's constant
// copying and merging of temporary sets never touches the heap. Sets
// that outgrow the buffer spill to a heap array transparently.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fsdep::taint {

using LabelId = std::uint32_t;

class LabelSet {
 public:
  /// Words stored inline: 128 labels before the set spills to the heap.
  static constexpr std::size_t kInlineWords = 2;

  LabelSet() = default;
  LabelSet(const LabelSet& other) { copyFrom(other); }
  LabelSet(LabelSet&& other) noexcept { moveFrom(other); }
  LabelSet& operator=(const LabelSet& other) {
    if (this != &other) {
      release();
      copyFrom(other);
    }
    return *this;
  }
  LabelSet& operator=(LabelSet&& other) noexcept {
    if (this != &other) {
      release();
      moveFrom(other);
    }
    return *this;
  }
  ~LabelSet() { release(); }

  /// Sets the bit; returns true when it was newly set.
  bool insert(LabelId id) {
    const std::size_t word = id >> 6;
    if (word >= nwords_) grow(word + 1);
    std::uint64_t* w = words();
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((w[word] & bit) != 0) return false;
    w[word] |= bit;
    ++count_;
    return true;
  }

  [[nodiscard]] bool contains(LabelId id) const {
    const std::size_t word = id >> 6;
    return word < nwords_ && (words()[word] >> (id & 63) & 1) != 0;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  void clear() {
    release();
    count_ = 0;
    nwords_ = kInlineWords;
    inline_[0] = 0;
    inline_[1] = 0;
  }

  /// Equality is set equality; trailing zero words are insignificant.
  bool operator==(const LabelSet& other) const {
    if (count_ != other.count_) return false;
    const std::size_t common = nwords_ < other.nwords_ ? nwords_ : other.nwords_;
    const std::uint64_t* a = words();
    const std::uint64_t* b = other.words();
    for (std::size_t i = 0; i < common; ++i) {
      if (a[i] != b[i]) return false;
    }
    // Same popcount and identical common prefix => any extra words are 0.
    return true;
  }

  class const_iterator {
   public:
    using value_type = LabelId;
    const_iterator(const std::uint64_t* words, std::size_t nwords, std::size_t word,
                   std::uint64_t pending)
        : words_(words), nwords_(nwords), word_(word), pending_(pending) {
      advance();
    }
    LabelId operator*() const {
      return static_cast<LabelId>(word_ * 64 +
                                  static_cast<std::size_t>(std::countr_zero(pending_)));
    }
    const_iterator& operator++() {
      pending_ &= pending_ - 1;  // clear lowest set bit
      advance();
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return word_ == other.word_ && pending_ == other.pending_;
    }

   private:
    void advance() {
      while (pending_ == 0 && word_ + 1 < nwords_) {
        ++word_;
        pending_ = words_[word_];
      }
      if (pending_ == 0) word_ = nwords_;  // end
    }
    const std::uint64_t* words_;
    std::size_t nwords_;
    std::size_t word_;
    std::uint64_t pending_;
  };

  [[nodiscard]] const_iterator begin() const {
    return const_iterator(words(), nwords_, 0, words()[0]);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(words(), nwords_, nwords_, 0);
  }

  /// True while the set lives entirely in the inline buffer (test hook).
  [[nodiscard]] bool isInline() const { return nwords_ <= kInlineWords; }

  friend bool unionInto(LabelSet& into, const LabelSet& from);

 private:
  [[nodiscard]] std::uint64_t* words() { return isInline() ? inline_ : heap_; }
  [[nodiscard]] const std::uint64_t* words() const { return isInline() ? inline_ : heap_; }

  void grow(std::size_t need);
  void release() {
    if (!isInline()) delete[] heap_;
  }
  void copyFrom(const LabelSet& other);
  void moveFrom(LabelSet& other) noexcept;

  std::uint32_t count_ = 0;
  std::uint32_t nwords_ = kInlineWords;
  union {
    std::uint64_t inline_[kInlineWords] = {0, 0};  ///< active when nwords_ <= kInlineWords
    std::uint64_t* heap_;                          ///< active when nwords_ > kInlineWords
  };
};

class LabelTable {
 public:
  LabelId internParam(std::string_view qualified_param);
  LabelId internField(std::string_view record, std::string_view field);

  [[nodiscard]] const std::string& name(LabelId id) const { return names_[id]; }
  [[nodiscard]] bool isParam(LabelId id) const;
  [[nodiscard]] bool isField(LabelId id) const;
  /// Strips the family prefix: "param:mke2fs.blocksize" -> "mke2fs.blocksize".
  [[nodiscard]] std::string_view payload(LabelId id) const;
  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  LabelId intern(std::string name);
  std::vector<std::string> names_;
  std::unordered_map<std::string, LabelId> index_;
};

/// Interns "record.field" object keys to dense ids, so the per-point
/// taint state maps integers instead of strings. A key keeps its address
/// for the table's lifetime, so write events and traces can view it.
using FieldKeyId = std::uint32_t;

class FieldKeyTable {
 public:
  FieldKeyId intern(std::string_view record, std::string_view field);
  FieldKeyId internKey(std::string key);
  /// The "record.field" string of an id.
  [[nodiscard]] const std::string& key(FieldKeyId id) const { return keys_[id]; }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

 private:
  std::deque<std::string> keys_;
  std::unordered_map<std::string, FieldKeyId> index_;
};

/// set union; returns true when `into` grew. O(words) bitwise OR.
bool unionInto(LabelSet& into, const LabelSet& from);

/// Renders a label set like "{param:a.b, field:c.d}" for traces and tests.
std::string labelSetToString(const LabelTable& table, const LabelSet& set);

}  // namespace fsdep::taint
