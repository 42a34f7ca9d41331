// In-memory block device with fault injection. All fsim utilities go
// through this interface, so media errors, torn writes, transient
// failures and crash points can be injected under any of them
// (ConHandleCk and the CrashCk campaign use this).
//
// Storage is sparse: a block holds memory only once something has been
// written to it, and a never-written block reads as zeros. A device
// therefore costs what its utilities write (mkfs, a mount and a file
// touch a few hundred blocks), not the capacity it addresses, even at
// 2^32 - 1 blocks. Sparsity is invisible to callers: every read, write,
// fault and counter below behaves as on a zero-filled medium.
//
// Fault model
//   - A FaultPlan is the one fault schedule, installed with
//     setFaultPlan(). Every run is replayable from the (plan, seed)
//     pair: the same plan on the same operation sequence produces the
//     same failure at the same write index.
//       * crash_at_write freezes the device when the Nth successful
//         write would happen; the crashing write persists only a torn
//         prefix (none / fixed / seeded length). A frozen device throws
//         on every access until clearFaults() — exactly a machine that
//         lost power mid-write.
//       * fail_after_writes models device death: once N writes have
//         persisted, all later writes fail permanently.
//       * transients model media errors: an access to the faulted block
//         fails `failures` times, then succeeds. A fault with `failures`
//         UINT32_MAX is a bad block that fails until clearFaults().
//   - The device retries a failed access at the block layer, the way a
//     kernel retries transient media errors: at most kMaxAttempts
//     attempts per access, so a transient with fewer failures is
//     absorbed and one with more surfaces. Crash-frozen and dead
//     devices are never retried.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace fsdep::fsim {

class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

/// A recoverable media error pinned to one block: the first `failures`
/// accesses fail, later ones succeed (cleared in place).
struct TransientFault {
  std::uint32_t block = 0;
  std::uint32_t failures = 1;
  bool on_write = true;  ///< false: reads of the block fail instead
};

/// How much of the crashing write reaches the medium.
enum class TornMode : std::uint8_t {
  None,    ///< nothing persists
  Prefix,  ///< the first torn_prefix_bytes persist
  Seeded,  ///< prefix length derived deterministically from the seed
};

/// Deterministic fault schedule. Write indices are plan-relative and
/// count only *persisted* writes, so an operation's crash points are
/// exactly 0 .. writeCount-1 of a fault-free run.
struct FaultPlan {
  std::uint64_t seed = 0;
  std::optional<std::uint64_t> crash_at_write;
  TornMode torn_mode = TornMode::None;
  std::uint32_t torn_prefix_bytes = 0;
  std::optional<std::uint64_t> fail_after_writes;
  std::vector<TransientFault> transients;
};

class BlockDevice {
 public:
  /// Attempts per access before a fault surfaces as an IoError.
  static constexpr std::uint32_t kMaxAttempts = 3;

  BlockDevice(std::uint32_t block_count, std::uint32_t block_size);

  [[nodiscard]] std::uint32_t blockCount() const { return block_count_; }
  [[nodiscard]] std::uint32_t blockSize() const { return block_size_; }
  [[nodiscard]] std::uint64_t sizeBytes() const {
    return static_cast<std::uint64_t>(block_count_) * block_size_;
  }

  /// Reads one block. Throws IoError for out-of-range or injected faults.
  void readBlock(std::uint32_t block, std::span<std::uint8_t> out) const;
  void writeBlock(std::uint32_t block, std::span<const std::uint8_t> data);

  /// Byte-granular access (the superblock lives at byte offset 1024).
  /// A range may cross block boundaries: the fault checks run for every
  /// block it touches before any byte moves, and it counts as one read
  /// or write.
  void readBytes(std::uint64_t offset, std::span<std::uint8_t> out) const;
  void writeBytes(std::uint64_t offset, std::span<const std::uint8_t> data);

  /// Grows (or shrinks) the device; new blocks are zeroed (a block cut
  /// off by a shrink reads as zeros when a later grow brings it back).
  void resize(std::uint32_t new_block_count);

  // --- Fault injection ---------------------------------------------
  /// Flips one byte in `block` (silent corruption).
  void corruptBlock(std::uint32_t block, std::uint32_t byte_offset);

  /// Installs a deterministic fault schedule; replaces any previous one
  /// and restarts the plan-relative write index at zero.
  void setFaultPlan(FaultPlan plan);
  /// True once a crash fault fired; every access throws until
  /// clearFaults().
  [[nodiscard]] bool frozen() const { return frozen_; }
  /// Removes all faults: the fault plan and the frozen/dead latches.
  /// Statistics are NOT touched (see resetStats).
  void clearFaults();

  // --- Statistics ---------------------------------------------------
  [[nodiscard]] std::uint64_t readCount() const { return reads_; }
  [[nodiscard]] std::uint64_t writeCount() const { return writes_; }
  /// Failed attempts that were retried.
  [[nodiscard]] std::uint64_t retryCount() const { return retries_; }
  /// Persisted writes since the current fault plan was installed.
  [[nodiscard]] std::uint64_t planWriteIndex() const { return plan_write_index_; }
  /// Zeroes the read/write/retry counters so callers can observe a
  /// single operation. Fault state is unaffected.
  void resetStats();

 private:
  void checkRange(std::uint32_t block) const;
  /// The access, retried up to kMaxAttempts; throws once it gives up.
  void readRetrying(std::uint64_t offset, std::span<std::uint8_t> out) const;
  void writeRetrying(std::uint64_t offset, std::span<const std::uint8_t> data);
  void noteRetry() const;
  /// One attempt with the fault checks of every block in the range;
  /// throws on any fault before a byte moves (a crash's torn prefix
  /// aside).
  void attemptWrite(std::uint64_t offset, std::span<const std::uint8_t> data);
  void attemptRead(std::uint64_t offset, std::span<std::uint8_t> out) const;
  /// Bytes of the crashing write that persist under the torn mode.
  [[nodiscard]] std::size_t tornPrefixLength(std::size_t write_size) const;

  /// The storage: copy a byte range out of / into the blocks it spans,
  /// split at block boundaries. copyOut reads a never-written block as
  /// zeros; copyIn gives a block (and its chunk) memory on the first write.
  void copyOut(std::uint64_t offset, std::span<std::uint8_t> out) const;
  void copyIn(std::uint64_t offset, std::span<const std::uint8_t> data);

  /// Blocks per chunk of the block table.
  static constexpr std::uint32_t kChunkBits = 12;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  /// One buffer per block of a chunk; null until the block's first write.
  using Chunk = std::array<std::unique_ptr<std::uint8_t[]>, 1u << kChunkBits>;

  std::uint32_t block_count_;
  std::uint32_t block_size_;
  /// The block table, up to the highest chunk written; a chunk is null
  /// until a block in it is written. A shrink frees the blocks it cuts off.
  std::vector<std::unique_ptr<Chunk>> chunks_;
  mutable std::optional<FaultPlan> plan_;  // transients decay in place
  bool frozen_ = false;
  bool dead_ = false;
  std::uint64_t plan_write_index_ = 0;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  mutable std::uint64_t retries_ = 0;
};

}  // namespace fsdep::fsim
