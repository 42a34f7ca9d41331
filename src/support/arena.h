// Bump-pointer arena for the analysis data structures (AST nodes, CFG
// basic blocks, per-function taint results). One owner — a
// TranslationUnit, a Cfg, an Analyzer run — allocates many small nodes,
// then frees them all at once: exactly the lifetime the pipeline has, and
// exactly what malloc-per-node wastes time on at amplified-corpus scale.
//
// Blocks are sized to their owner: the first is small and each next one
// doubles up to a cap, so the many owners that allocate a few hundred
// bytes (most Cfgs) do not each pay for — and zero-fill — a full-size
// block. A request above the cap gets a block of its own. Every block is
// zero-filled when it is created.
//
// Lifetime rules (see DESIGN §10):
//   * The arena only hands out raw storage; object destructors still run,
//     via ArenaPtr (std::unique_ptr with a destroy-only deleter).
//   * The arena must outlive every ArenaPtr into it. Owners declare the
//     arena as their *first* member so it is destroyed last.
//   * There is no per-object free: memory is reclaimed by reset() (when
//     no arena object is alive) or by destroying the arena.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <memory_resource>
#include <type_traits>
#include <utility>
#include <vector>

namespace fsdep {

class Arena {
 public:
  static constexpr std::size_t kFirstBlockSize = 2 * 1024;
  static constexpr std::size_t kMaxBlockSize = 64 * 1024;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Raw storage of `size` bytes aligned to `align` (a power of two, at
  /// most alignof(std::max_align_t)). Never returns null; grows by whole
  /// blocks.
  void* allocate(std::size_t size, std::size_t align) {
    std::size_t offset = (used_ + align - 1) & ~(align - 1);
    if (blocks_.empty() || offset + size > blocks_.back().size) {
      addBlock(size);
      offset = 0;
    }
    used_ = offset + size;
    total_used_ += size;
    return blocks_.back().data.get() + offset;
  }

  /// Constructs a T in the arena. The caller owns the object's lifetime
  /// (wrap it in an ArenaPtr so its destructor runs); the storage is the
  /// arena's until reset() or destruction.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    return new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Keeps only the largest block and rewinds it. Only legal when no
  /// object allocated from this arena is still alive.
  void reset() {
    if (blocks_.size() > 1) {
      const auto by_size = [](const Block& a, const Block& b) { return a.size < b.size; };
      Block keep = std::move(*std::max_element(blocks_.begin(), blocks_.end(), by_size));
      blocks_.clear();
      blocks_.push_back(std::move(keep));
    }
    used_ = 0;
    total_used_ = 0;
  }

  [[nodiscard]] std::size_t blockCount() const { return blocks_.size(); }
  [[nodiscard]] std::size_t bytesUsed() const { return total_used_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void addBlock(std::size_t min_size) {
    const std::size_t size = std::max(next_block_size_, min_size);
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});  // zero-filled
    next_block_size_ = std::min(next_block_size_ * 2, kMaxBlockSize);
  }

  std::vector<Block> blocks_;
  std::size_t used_ = 0;        ///< bump offset within blocks_.back()
  std::size_t total_used_ = 0;  ///< bytes handed out since last reset
  std::size_t next_block_size_ = kFirstBlockSize;
};

/// Deleter that runs the destructor but returns no memory — the arena
/// owns the storage. unique_ptr semantics (moves, resets, conversions
/// derived->base) are unchanged.
struct ArenaDelete {
  template <typename T>
  void operator()(T* p) const noexcept {
    if (p != nullptr) p->~T();
  }
};

/// Owning pointer to an arena-allocated object.
template <typename T>
using ArenaPtr = std::unique_ptr<T, ArenaDelete>;

/// A std::pmr::memory_resource drawing from an Arena: deallocation is a
/// no-op, and the memory returns to the arena's owner on reset() or
/// destruction. Containers using it must be destroyed before either.
class ArenaResource final : public std::pmr::memory_resource {
 public:
  explicit ArenaResource(Arena& arena) : arena_(arena) {}

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    return arena_.allocate(bytes, align);
  }
  void do_deallocate(void*, std::size_t, std::size_t) override {}
  [[nodiscard]] bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override {
    return this == &other;
  }

  Arena& arena_;
};

/// A growable array whose storage comes from an Arena, so appending never
/// calls the heap allocator. Capacity doubles; an outgrown buffer stays in
/// the arena until it is reset or destroyed, which at most doubles the
/// bytes the list occupies. The caller passes the arena on every append
/// and must keep it alive as long as the list. Holds only trivially
/// copyable, trivially destructible values, so the list itself is too.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  void push_back(Arena& arena, const T& value) {
    if (size_ == capacity_) grow(arena);
    data_[size_++] = value;
  }

  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void grow(Arena& arena) {
    const std::uint32_t capacity = capacity_ == 0 ? 2 : capacity_ * 2;
    T* data = static_cast<T*>(arena.allocate(capacity * sizeof(T), alignof(T)));
    if (size_ > 0) std::memcpy(data, data_, size_ * sizeof(T));
    data_ = data;
    capacity_ = capacity;
  }

  T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace fsdep
