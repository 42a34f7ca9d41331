#include "fsim/block_device.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsdep::fsim {

namespace {

/// splitmix64 — the deterministic mixer behind seeded torn prefixes.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Process-wide device traffic, aggregated over every BlockDevice in the
// run (CrashCk creates thousands of short-lived devices; per-instance
// numbers stay available via readCount()/writeCount()).
obs::Counter& writesCounter() {
  static obs::Counter& c = obs::Registry::global().counter("fsim.device.writes");
  return c;
}
obs::Counter& readsCounter() {
  static obs::Counter& c = obs::Registry::global().counter("fsim.device.reads");
  return c;
}
obs::Counter& retriesCounter() {
  static obs::Counter& c = obs::Registry::global().counter("fsim.device.retries");
  return c;
}

/// A fault-plan firing: counted always, traced as an instant event when
/// tracing is on (these are the interesting moments of a CrashCk run).
void noteFaultFired(const char* kind, std::uint64_t write_index) {
  static obs::Registry& registry = obs::Registry::global();
  registry.counter("fsim.fault.fired", {{"kind", kind}}).add();
  if (obs::Trace::enabled()) {
    std::string args;
    obs::appendArg(args, "kind", kind);
    obs::appendArg(args, "write_index", write_index);
    obs::Trace::instant("fsim", "fault-fired", std::move(args));
  }
}

/// The first and last block a byte range touches (an empty range
/// touches the block at its offset).
struct BlockRange {
  std::uint32_t first;
  std::uint32_t last;
  BlockRange(std::uint64_t offset, std::size_t size, std::uint32_t block_size)
      : first(static_cast<std::uint32_t>(offset / block_size)),
        last(static_cast<std::uint32_t>((offset + std::max<std::size_t>(size, 1) - 1) /
                                        block_size)) {}
  [[nodiscard]] bool contains(std::uint32_t block) const {
    return first <= block && block <= last;
  }
};

}  // namespace

BlockDevice::BlockDevice(std::uint32_t block_count, std::uint32_t block_size)
    : block_count_(block_count), block_size_(block_size) {
  if (block_size == 0 || (block_size & (block_size - 1)) != 0) {
    throw IoError("block size must be a nonzero power of two");
  }
}

void BlockDevice::checkRange(std::uint32_t block) const {
  if (block >= block_count_) {
    throw IoError("block " + std::to_string(block) + " out of range (device has " +
                  std::to_string(block_count_) + " blocks)");
  }
}

void BlockDevice::copyOut(std::uint64_t offset, std::span<std::uint8_t> out) const {
  for (std::size_t done = 0; done < out.size();) {
    const std::uint64_t at = offset + done;
    const std::size_t within = static_cast<std::size_t>(at % block_size_);
    const std::size_t n = std::min<std::size_t>(block_size_ - within, out.size() - done);
    const std::uint64_t block = at / block_size_;
    const std::uint64_t chunk = block >> kChunkBits;
    const std::uint8_t* stored = chunk < chunks_.size() && chunks_[chunk]
                                     ? (*chunks_[chunk])[block & kChunkMask].get()
                                     : nullptr;
    if (stored != nullptr) {
      std::memcpy(out.data() + done, stored + within, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
    done += n;
  }
}

void BlockDevice::copyIn(std::uint64_t offset, std::span<const std::uint8_t> data) {
  for (std::size_t done = 0; done < data.size();) {
    const std::uint64_t at = offset + done;
    const std::size_t within = static_cast<std::size_t>(at % block_size_);
    const std::size_t n = std::min<std::size_t>(block_size_ - within, data.size() - done);
    const std::uint64_t block = at / block_size_;
    const std::uint64_t chunk = block >> kChunkBits;
    if (chunk >= chunks_.size()) chunks_.resize(chunk + 1);
    if (!chunks_[chunk]) chunks_[chunk] = std::make_unique<Chunk>();
    std::unique_ptr<std::uint8_t[]>& stored = (*chunks_[chunk])[block & kChunkMask];
    if (!stored) stored = std::make_unique<std::uint8_t[]>(block_size_);  // zeroed
    std::memcpy(stored.get() + within, data.data() + done, n);
    done += n;
  }
}

std::size_t BlockDevice::tornPrefixLength(std::size_t write_size) const {
  if (!plan_) return 0;
  switch (plan_->torn_mode) {
    case TornMode::None:
      return 0;
    case TornMode::Prefix:
      return std::min<std::size_t>(plan_->torn_prefix_bytes, write_size);
    case TornMode::Seeded:
      return static_cast<std::size_t>(mix64(plan_->seed ^ (plan_write_index_ + 1)) %
                                      (write_size + 1));
  }
  return 0;
}

void BlockDevice::attemptWrite(std::uint64_t offset, std::span<const std::uint8_t> data) {
  if (frozen_) throw IoError("device frozen by injected crash");
  if (dead_) throw IoError("device failed (fail-after fault)");
  const BlockRange range(offset, data.size(), block_size_);
  if (plan_) {
    if (plan_->fail_after_writes && plan_write_index_ >= *plan_->fail_after_writes) {
      dead_ = true;
      noteFaultFired("fail_after", plan_write_index_);
      throw IoError("device failed after " + std::to_string(*plan_->fail_after_writes) +
                    " writes");
    }
    if (plan_->crash_at_write && plan_write_index_ == *plan_->crash_at_write) {
      // Persist only a torn prefix of this write, then lose power.
      const std::size_t keep = tornPrefixLength(data.size());
      copyIn(offset, data.first(keep));
      frozen_ = true;
      noteFaultFired("crash", plan_write_index_);
      throw IoError("crash injected at write index " +
                    std::to_string(*plan_->crash_at_write) + " (" + std::to_string(keep) +
                    " of " + std::to_string(data.size()) + " bytes persisted)");
    }
    for (TransientFault& t : plan_->transients) {
      if (t.on_write && t.failures > 0 && range.contains(t.block)) {
        --t.failures;
        noteFaultFired("transient_write", plan_write_index_);
        throw IoError("transient write error at block " + std::to_string(t.block));
      }
    }
  }
  copyIn(offset, data);
  ++writes_;
  ++plan_write_index_;
  writesCounter().add();
}

void BlockDevice::attemptRead(std::uint64_t offset, std::span<std::uint8_t> out) const {
  if (frozen_) throw IoError("device frozen by injected crash");
  const BlockRange range(offset, out.size(), block_size_);
  if (plan_) {
    for (TransientFault& t : plan_->transients) {
      if (!t.on_write && t.failures > 0 && range.contains(t.block)) {
        --t.failures;
        noteFaultFired("transient_read", plan_write_index_);
        throw IoError("transient read error at block " + std::to_string(t.block));
      }
    }
  }
  copyOut(offset, out);
  ++reads_;
  readsCounter().add();
}

void BlockDevice::noteRetry() const {
  ++retries_;
  retriesCounter().add();
}

void BlockDevice::readRetrying(std::uint64_t offset, std::span<std::uint8_t> out) const {
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      attemptRead(offset, out);
      return;
    } catch (const IoError&) {
      if (frozen_ || attempt >= kMaxAttempts) throw;
      noteRetry();
    }
  }
}

void BlockDevice::writeRetrying(std::uint64_t offset, std::span<const std::uint8_t> data) {
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      attemptWrite(offset, data);
      return;
    } catch (const IoError&) {
      if (frozen_ || dead_ || attempt >= kMaxAttempts) throw;
      noteRetry();
    }
  }
}

void BlockDevice::readBlock(std::uint32_t block, std::span<std::uint8_t> out) const {
  checkRange(block);
  if (out.size() != block_size_) throw IoError("short read buffer");
  readRetrying(static_cast<std::uint64_t>(block) * block_size_, out);
}

void BlockDevice::writeBlock(std::uint32_t block, std::span<const std::uint8_t> data) {
  checkRange(block);
  if (data.size() != block_size_) throw IoError("short write buffer");
  writeRetrying(static_cast<std::uint64_t>(block) * block_size_, data);
}

void BlockDevice::readBytes(std::uint64_t offset, std::span<std::uint8_t> out) const {
  if (offset > sizeBytes() || out.size() > sizeBytes() - offset) {
    throw IoError("byte read out of range");
  }
  readRetrying(offset, out);
}

void BlockDevice::writeBytes(std::uint64_t offset, std::span<const std::uint8_t> data) {
  if (offset > sizeBytes() || data.size() > sizeBytes() - offset) {
    throw IoError("byte write out of range");
  }
  writeRetrying(offset, data);
}

void BlockDevice::resize(std::uint32_t new_block_count) {
  if (frozen_) throw IoError("device frozen by injected crash");
  // Free the blocks a shrink cuts off: the chunk tail, then later chunks.
  const std::size_t end_chunk = new_block_count >> kChunkBits;
  if (end_chunk < chunks_.size()) {
    if (Chunk* tail = chunks_[end_chunk].get()) {
      for (std::uint32_t i = new_block_count & kChunkMask; i <= kChunkMask; ++i) {
        (*tail)[i].reset();
      }
    }
    chunks_.resize(end_chunk + 1);
  }
  block_count_ = new_block_count;
}

void BlockDevice::corruptBlock(std::uint32_t block, std::uint32_t byte_offset) {
  checkRange(block);
  const std::uint64_t offset =
      static_cast<std::uint64_t>(block) * block_size_ + byte_offset % block_size_;
  std::uint8_t byte = 0;
  copyOut(offset, {&byte, 1});
  byte ^= 0xFF;
  copyIn(offset, {&byte, 1});
}

void BlockDevice::setFaultPlan(FaultPlan plan) {
  plan_ = std::move(plan);
  plan_write_index_ = 0;
  frozen_ = false;
  dead_ = false;
}

void BlockDevice::clearFaults() {
  plan_.reset();
  frozen_ = false;
  dead_ = false;
  plan_write_index_ = 0;
}

void BlockDevice::resetStats() {
  reads_ = 0;
  writes_ = 0;
  retries_ = 0;
}

}  // namespace fsdep::fsim
