// A sorted struct-of-arrays map: the taint hot loop replaces std::map
// node churn with binary search over contiguous buffers. Keys are cheap
// to compare (pointers, interned ids) and live in their own dense array,
// so the merge prepass — the scan deciding which keys are new — streams
// key words only, never the (larger) LabelSet payloads interleaved
// between them. Values sit in a parallel array at the same index.
// Iteration is in key order, so everything downstream stays
// deterministic.
//
// A map may draw its storage from a std::pmr::memory_resource (the taint
// analyzer keeps its per-block result states in its arena). A copy of a
// map always uses the default heap resource, so it never depends on the
// lifetime of the resource its source came from.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory_resource>
#include <type_traits>
#include <utility>
#include <vector>

namespace fsdep {

template <typename Key, typename Value>
class FlatMap {
 public:
  /// Iterators yield a {first, second} reference pair, so range-for with
  /// structured bindings and `it->second` read exactly like the
  /// array-of-pairs layout they replaced.
  template <bool Const>
  class Iter {
   public:
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;
    struct reference {
      const Key& first;
      std::conditional_t<Const, const Value&, Value&> second;
    };
    struct pointer {
      reference ref;
      reference* operator->() { return &ref; }
    };

    Iter(Map* map, std::size_t index) : map_(map), index_(index) {}
    reference operator*() const { return reference{map_->keys_[index_], map_->values_[index_]}; }
    pointer operator->() const { return pointer{**this}; }
    Iter& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iter& other) const { return index_ == other.index_; }
    [[nodiscard]] std::size_t index() const { return index_; }

   private:
    Map* map_;
    std::size_t index_;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  explicit FlatMap(std::pmr::memory_resource* resource) : keys_(resource), values_(resource) {}

  /// std::map-style: inserts a default Value when the key is absent.
  Value& operator[](const Key& key) {
    const std::size_t i = lowerBound(key);
    if (i < keys_.size() && keys_[i] == key) return values_[i];
    keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(i), key);
    return *values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(i), Value{});
  }

  [[nodiscard]] const_iterator find(const Key& key) const {
    const std::size_t i = lowerBound(key);
    return i < keys_.size() && keys_[i] == key ? const_iterator(this, i) : end();
  }
  [[nodiscard]] iterator find(const Key& key) {
    const std::size_t i = lowerBound(key);
    return i < keys_.size() && keys_[i] == key ? iterator(this, i) : end();
  }

  [[nodiscard]] bool contains(const Key& key) const { return find(key) != end(); }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, keys_.size()); }
  [[nodiscard]] const_iterator begin() const { return const_iterator(this, 0); }
  [[nodiscard]] const_iterator end() const { return const_iterator(this, keys_.size()); }

  [[nodiscard]] bool empty() const { return keys_.empty(); }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  void clear() {
    keys_.clear();
    values_.clear();
  }
  void reserve(std::size_t n) {
    keys_.reserve(n);
    values_.reserve(n);
  }

  /// The dense sorted key array (index-parallel with values()).
  [[nodiscard]] const std::pmr::vector<Key>& keys() const { return keys_; }
  [[nodiscard]] const std::pmr::vector<Value>& values() const { return values_; }

  bool operator==(const FlatMap& other) const {
    return keys_ == other.keys_ && values_ == other.values_;
  }

  /// Pointwise merge: for every entry of `other`, merge(value, theirs)
  /// when the key exists here, else copy it in. One linear walk over both
  /// sorted key arrays — no per-key binary searches, and no payload
  /// traffic until a key actually needs merging. `merge` returns true
  /// when the destination value changed; a copied-in entry counts as a
  /// change exactly when `grew(copy)` says so (an empty LabelSet copied
  /// in preserves equality semantics but is not growth).
  template <typename Merge, typename Grew>
  bool mergeFrom(const FlatMap& other, Merge&& merge, Grew&& grew) {
    if (other.keys_.empty()) return false;
    bool changed = false;
    // Count the keys missing here so one reallocation fits the result;
    // this scan touches only the two dense key arrays.
    std::size_t missing = 0;
    {
      std::size_t a = 0;
      for (const Key& b : other.keys_) {
        while (a < keys_.size() && keys_[a] < b) ++a;
        if (a == keys_.size() || b < keys_[a]) ++missing;
      }
    }
    // An empty map takes an exact fit (the common first merge into a
    // fresh state); a filled one grows geometrically, like push_back, as
    // an exact fit would reallocate on every merge that brings a new key.
    if (keys_.size() + missing > keys_.capacity()) {
      reserve(keys_.empty() ? missing : std::max(keys_.size() + missing, 2 * keys_.capacity()));
    }
    std::size_t a = 0;
    for (std::size_t b = 0; b < other.keys_.size(); ++b) {
      const Key& bk = other.keys_[b];
      while (a < keys_.size() && keys_[a] < bk) ++a;
      if (a < keys_.size() && keys_[a] == bk) {
        changed |= merge(values_[a], other.values_[b]);
      } else {
        keys_.insert(keys_.begin() + static_cast<std::ptrdiff_t>(a), bk);
        values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(a), other.values_[b]);
        changed |= grew(other.values_[b]);
      }
      ++a;
    }
    return changed;
  }

 private:
  [[nodiscard]] std::size_t lowerBound(const Key& key) const {
    return static_cast<std::size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }

  std::pmr::vector<Key> keys_;
  std::pmr::vector<Value> values_;
};

}  // namespace fsdep
