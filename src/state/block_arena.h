#ifndef DCAPE_STATE_BLOCK_ARENA_H_
#define DCAPE_STATE_BLOCK_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dcape {

/// Trivially copyable elements in blocks of 2^kBlockBits: a partition
/// group's row arena, and the byte arena under its payloads. Element i
/// sits at offset i mod the block size in block i / the block size, so
/// an index stays valid as the arena grows.
///
/// Block 0 grows by copying, the way a std::vector grows (to
/// max(2 × size, size + n) elements for n more), up to a full block, so
/// a small arena holds exactly what a vector would. Every later block is
/// allocated whole and nothing past block 0 is ever copied to grow.
///
/// Allot(n) hands out n contiguous elements and never splits them over
/// two blocks: when they do not fit the rest of the current block, that
/// tail stays unused (a gap, counted in size()) and they open the next
/// block. Once a second block exists, block 0 is a full block.
template <typename T, int kBlockBits>
class BlockArena {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;

  /// The allotted extent: every element handed out, live or not, and the
  /// gaps left at block tails.
  size_t size() const { return size_; }
  /// Elements the blocks hold room for.
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) { return blocks_[i >> kBlockBits][i & kMask]; }
  const T& operator[](size_t i) const {
    return blocks_[i >> kBlockBits][i & kMask];
  }

  /// Where n elements allotted behind `end` start: at `end` when they fit
  /// the rest of its block, otherwise at the next block's first element.
  static size_t Place(size_t end, size_t n) {
    return (end & kMask) + n <= kBlockSize ? end : (end | kMask) + 1;
  }

  /// Allots n contiguous elements (n at most a block) behind size() and
  /// returns the first one's index; their values are unset.
  size_t Allot(size_t n) {
    DCAPE_CHECK_LE(n, kBlockSize);
    const size_t at = Place(size_, n);
    if (at + n > capacity_) Grow(at + n);
    size_ = at + n;
    return at;
  }

  /// Makes room for n more elements at once when they fit block 0, as
  /// std::vector::insert of n elements does, so a bulk copy into a small
  /// arena grows it once.
  void Reserve(size_t n) {
    if (size_ + n > capacity_ && size_ + n <= kBlockSize) Grow(size_ + n);
  }

  /// Forgets every element at or past n and frees the blocks wholly past
  /// it. Block 0 keeps its memory, as a vector keeps its capacity.
  void Truncate(size_t n) {
    DCAPE_CHECK_LE(n, size_);
    size_ = n;
    const size_t keep = std::max<size_t>(1, (n + kMask) >> kBlockBits);
    if (blocks_.size() > keep) {
      blocks_.resize(keep);
      capacity_ = keep * kBlockSize;
    }
  }

  /// Frees every block.
  void Clear() { *this = BlockArena(); }

 private:
  static constexpr size_t kMask = kBlockSize - 1;

  /// Makes room for the extent to reach `end` (> capacity()).
  void Grow(size_t end) {
    if (blocks_.size() <= 1 && end <= kBlockSize) {
      ResizeFirst(std::min(kBlockSize, std::max(2 * size_, end)));
      return;
    }
    // Leaving block 0: it becomes a full block, so every element below
    // the extent has memory behind it.
    if (capacity_ < kBlockSize) ResizeFirst(kBlockSize);
    while (capacity_ < end) {
      blocks_.push_back(std::make_unique_for_overwrite<T[]>(kBlockSize));
      capacity_ += kBlockSize;
    }
  }

  /// Moves block 0, the only block, into `capacity` elements.
  void ResizeFirst(size_t capacity) {
    auto first = std::make_unique_for_overwrite<T[]>(capacity);
    if (size_ > 0) std::copy_n(blocks_[0].get(), size_, first.get());
    if (blocks_.empty()) {
      blocks_.push_back(std::move(first));
    } else {
      blocks_[0] = std::move(first);
    }
    capacity_ = capacity;
  }

  std::vector<std::unique_ptr<T[]>> blocks_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// A partition group's payload bytes. A payload of at most a block
/// (256 KiB) is allotted in a BlockArena and never straddles two blocks;
/// a longer one gets its own contiguous run. A row keeps the payload's
/// size and a 32-bit handle: the payload's offset in the block arena,
/// or, for a payload longer than a block, its run's number.
///
/// Handles are handed out in store order, and a Compaction walks kept
/// payloads in that order, so it only ever moves bytes towards the
/// front.
class PayloadArena {
 public:
  static constexpr int kBlockBits = 18;
  static constexpr size_t kBlockBytes = size_t{1} << kBlockBits;

  /// Copies `bytes` in and returns their handle.
  uint32_t Store(std::string_view bytes) {
    if (bytes.size() > kBlockBytes) return StoreRun(bytes);
    const size_t at = blocks_.Allot(bytes.size());
    // 32-bit handles: overflow aborts, never wraps.
    DCAPE_CHECK_LE(blocks_.size(), size_t{UINT32_MAX});
    if (!bytes.empty()) std::memcpy(&blocks_[at], bytes.data(), bytes.size());
    return static_cast<uint32_t>(at);
  }

  /// The `size` bytes stored under `handle`.
  std::string_view Get(uint32_t handle, uint32_t size) const {
    // An empty payload may sit in an empty arena, which has no block.
    if (size == 0) return {};
    if (size > kBlockBytes) return {runs_[handle].get(), size};
    return {&blocks_[handle], size};
  }

  /// Bytes stored: the block arena's extent (live and dead payloads and
  /// the gaps at block tails) plus every run. O(1).
  int64_t stored_bytes() const {
    return static_cast<int64_t>(blocks_.size()) + run_bytes_;
  }
  /// Heap bytes: the blocks' capacity plus every run. O(1).
  int64_t resident_bytes() const {
    return static_cast<int64_t>(blocks_.capacity()) + run_bytes_;
  }
  /// The block arena's extent, the bytes a bulk copy of every payload
  /// below a block would take.
  size_t block_bytes() const { return blocks_.size(); }

  /// Makes room for `bytes` more block bytes at once (BlockArena::Reserve).
  void Reserve(size_t bytes) { blocks_.Reserve(bytes); }
  /// Frees every block and run.
  void Clear() { *this = PayloadArena(); }

  /// Compacts the arena in place: Slide every payload still in use, in
  /// store order, then call Seal, which frees the blocks past the last
  /// kept byte and every run no Slide kept. Handles from before the
  /// compaction are invalid after it.
  class Compaction {
   public:
    explicit Compaction(PayloadArena* arena) : arena_(arena) {}
    /// Moves the next kept payload towards the front; returns its new
    /// handle.
    uint32_t Slide(uint32_t handle, uint32_t size);
    void Seal();

   private:
    PayloadArena* arena_;
    size_t end_ = 0;
    size_t runs_ = 0;
    int64_t run_bytes_ = 0;
  };

 private:
  uint32_t StoreRun(std::string_view bytes);

  BlockArena<char, kBlockBits> blocks_;
  std::vector<std::unique_ptr<char[]>> runs_;
  int64_t run_bytes_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_STATE_BLOCK_ARENA_H_
