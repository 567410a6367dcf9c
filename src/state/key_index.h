#ifndef DCAPE_STATE_KEY_INDEX_H_
#define DCAPE_STATE_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/ids.h"

namespace dcape {

/// Fixed 64-bit mix (splitmix64 finalizer) used to derive sub-partition
/// slots from join keys. Deliberately *not* std::hash: the slot of a key
/// must be identical across standard libraries, platforms, and runs, or
/// the recursive sub-partition split would break trace/oracle
/// bit-identity.
inline uint64_t SecondaryKeyHash(JoinKey key) {
  uint64_t x = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A row's number in a partition group's row arena. 32 bits bound a
/// group to 2^32 - 1 rows; appending past that fails a DCAPE_CHECK.
using RowId = uint32_t;
/// The tail of an empty chain.
inline constexpr RowId kNoRow = UINT32_MAX;

/// Open-addressed (linear probing) index from a join key to what a
/// partition group keeps per key: the key's access clock and, for each
/// input stream, the tail row of the key's chain. Chains are circular
/// (the tail row links to the head), so the tail alone reaches both
/// ends.
///
/// One slot is 4 + m 32-bit words — the key and the access clock, two
/// words each, then one tail per stream — 16 + 4m bytes, so a probe
/// reads one slot. Capacity is a power of two that doubles before the
/// load passes 3/4; the home slot comes from the top bits of
/// SecondaryKeyHash, which stay independent of the low bits the
/// sub-partition split consumes. Erasure shifts the rest of the probe
/// run back, so there are no tombstones. An index that never held a key
/// owns no memory.
///
/// Slot numbers are valid until the next insertion, erasure or rehash.
/// Iteration visits occupied slots in slot order, a function of the
/// hash and of the insertion history: anything on its way to bytes or
/// results must sort first. dcape-lint's unordered-net check treats
/// this type like std::unordered_map.
class JoinKeyIndex {
 public:
  static constexpr size_t kNoSlot = SIZE_MAX;

  explicit JoinKeyIndex(int num_streams)
      : stride_(kTails + static_cast<size_t>(num_streams)) {}

  /// Number of keys held.
  int64_t size() const { return size_; }
  /// Bytes of the slot array (capacity, not occupancy). O(1).
  int64_t resident_bytes() const {
    return static_cast<int64_t>(words_.capacity() * sizeof(uint32_t));
  }

  /// The slot holding `key`, or kNoSlot.
  size_t Find(JoinKey key) const {
    if (size_ == 0) return kNoSlot;
    for (size_t slot = Home(key);; slot = (slot + 1) & mask_) {
      const uint32_t* w = Slot(slot);
      if (IsEmpty(w)) return kNoSlot;
      if (Load64(w) == static_cast<uint64_t>(key)) return slot;
    }
  }

  /// The slot holding `key`. An absent key is inserted with access
  /// clock 0 and empty chains; inserting may rehash, which moves every
  /// other slot.
  size_t FindOrInsert(JoinKey key) {
    if (!words_.empty()) {
      size_t slot = Home(key);
      for (;; slot = (slot + 1) & mask_) {
        const uint32_t* w = Slot(slot);
        if (IsEmpty(w)) break;
        if (Load64(w) == static_cast<uint64_t>(key)) return slot;
      }
      if ((static_cast<size_t>(size_) + 1) * 4 <= capacity() * 3) {
        return Claim(slot, key);
      }
    }
    Rehash(words_.empty() ? kMinCapacity : 2 * capacity());
    size_t slot = Home(key);
    while (!IsEmpty(Slot(slot))) slot = (slot + 1) & mask_;
    return Claim(slot, key);
  }

  /// Removes the key at `slot`; moves later slots of its probe run.
  void Erase(size_t slot);

  /// Rehashes into the smallest capacity that holds the keys at no more
  /// than 3/8 load, when that is at most half the current one (after
  /// many erasures). Releases the slot array when no key is left.
  void ShrinkToFit();

  JoinKey key(size_t slot) const {
    return static_cast<JoinKey>(Load64(Slot(slot)));
  }
  /// The key's access clock (see PartitionGroup::SplitColdest).
  int64_t touch(size_t slot) const {
    return static_cast<int64_t>(Load64(Slot(slot) + kClock));
  }
  /// Access clocks are non-negative: an all-ones clock marks an empty
  /// slot.
  void set_touch(size_t slot, int64_t touch) {
    Store64(Slot(slot) + kClock, static_cast<uint64_t>(touch));
  }
  /// The tail row of stream `stream`'s chain, or kNoRow.
  RowId tail(size_t slot, int stream) const {
    return Slot(slot)[kTails + static_cast<size_t>(stream)];
  }
  void set_tail(size_t slot, int stream, RowId tail) {
    Slot(slot)[kTails + static_cast<size_t>(stream)] = tail;
  }

  /// Occupied slots in slot order (hash order; see the class comment).
  class Iterator {
   public:
    Iterator(const JoinKeyIndex* index, size_t slot)
        : index_(index), slot_(index->SkipEmpty(slot)) {}
    size_t operator*() const { return slot_; }
    Iterator& operator++() {
      slot_ = index_->SkipEmpty(slot_ + 1);
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return slot_ != other.slot_;
    }

   private:
    const JoinKeyIndex* index_;
    size_t slot_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, capacity()); }

 private:
  /// Word offsets in a slot: the key at 0, the access clock at kClock,
  /// the first stream's tail at kTails.
  static constexpr size_t kClock = 2;
  static constexpr size_t kTails = 4;
  /// Every word of an empty slot: its clock reads all ones and each of
  /// its tails kNoRow.
  static constexpr uint32_t kEmptyWord = UINT32_MAX;
  static_assert(kEmptyWord == kNoRow);
  static constexpr size_t kMinCapacity = 8;

  /// 64-bit fields sit at 4-byte alignment; memcpy reads and writes
  /// them without an aligned-access assumption.
  static uint64_t Load64(const uint32_t* w) {
    uint64_t v;
    std::memcpy(&v, w, sizeof v);
    return v;
  }
  static void Store64(uint32_t* w, uint64_t v) {
    std::memcpy(w, &v, sizeof v);
  }
  static bool IsEmpty(const uint32_t* w) {
    return Load64(w + kClock) == UINT64_MAX;
  }

  size_t capacity() const { return words_.size() / stride_; }
  size_t Home(JoinKey key) const {
    return static_cast<size_t>(SecondaryKeyHash(key) >> shift_);
  }
  uint32_t* Slot(size_t slot) { return &words_[slot * stride_]; }
  const uint32_t* Slot(size_t slot) const { return &words_[slot * stride_]; }
  size_t SkipEmpty(size_t slot) const {
    const size_t cap = capacity();
    while (slot < cap && IsEmpty(Slot(slot))) ++slot;
    return slot;
  }
  /// Fills the empty `slot` with `key` and clock 0; its tails are
  /// already kNoRow.
  size_t Claim(size_t slot, JoinKey key) {
    uint32_t* w = Slot(slot);
    Store64(w, static_cast<uint64_t>(key));
    Store64(w + kClock, 0);
    ++size_;
    return slot;
  }
  /// Moves every key into a fresh slot array of `new_capacity` slots (a
  /// power of two; 0 releases the array).
  void Rehash(size_t new_capacity);

  /// Words per slot: kTails, then one tail per stream.
  size_t stride_;
  /// capacity() * stride_ words.
  std::vector<uint32_t> words_;
  size_t mask_ = 0;
  int shift_ = 64;
  int64_t size_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_STATE_KEY_INDEX_H_
