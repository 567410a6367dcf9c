#ifndef DCAPE_STATE_KEY_INDEX_H_
#define DCAPE_STATE_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
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
/// Ends a row chain; also the first/last row of an empty chain.
inline constexpr RowId kNoRow = UINT32_MAX;

/// Open-addressed (linear probing) index from a join key to what a
/// partition group keeps per key: the key's access clock and, for each
/// input stream, the first and last row of the key's chain.
///
/// One slot is 2 + m 64-bit words — the key, the access clock, then one
/// word per stream packing (first row, last row) — so a probe reads one
/// slot. Capacity is a power of two that doubles before the load passes
/// 3/4; the home slot comes from the top bits of SecondaryKeyHash, which
/// stay independent of the low bits the sub-partition split consumes.
/// Erasure shifts the rest of the probe run back, so there are no
/// tombstones. An index that never held a key owns no memory.
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
      : stride_(2 + static_cast<size_t>(num_streams)) {}

  /// Number of keys held.
  int64_t size() const { return size_; }
  /// Bytes of the slot array (capacity, not occupancy). O(1).
  int64_t resident_bytes() const {
    return static_cast<int64_t>(words_.capacity() * sizeof(uint64_t));
  }

  /// The slot holding `key`, or kNoSlot.
  size_t Find(JoinKey key) const {
    if (size_ == 0) return kNoSlot;
    for (size_t slot = Home(key);; slot = (slot + 1) & mask_) {
      const uint64_t* w = Slot(slot);
      if (w[1] == kEmpty) return kNoSlot;
      if (w[0] == static_cast<uint64_t>(key)) return slot;
    }
  }

  /// The slot holding `key`. An absent key is inserted with access
  /// clock 0 and empty chains; inserting may rehash, which moves every
  /// other slot.
  size_t FindOrInsert(JoinKey key) {
    if (!words_.empty()) {
      size_t slot = Home(key);
      for (;; slot = (slot + 1) & mask_) {
        const uint64_t* w = Slot(slot);
        if (w[1] == kEmpty) break;
        if (w[0] == static_cast<uint64_t>(key)) return slot;
      }
      if ((static_cast<size_t>(size_) + 1) * 4 <= capacity() * 3) {
        return Claim(slot, key);
      }
    }
    Rehash(words_.empty() ? kMinCapacity : 2 * capacity());
    size_t slot = Home(key);
    while (Slot(slot)[1] != kEmpty) slot = (slot + 1) & mask_;
    return Claim(slot, key);
  }

  /// Removes the key at `slot`; moves later slots of its probe run.
  void Erase(size_t slot);

  /// Rehashes into the smallest capacity that holds the keys at no more
  /// than 3/8 load, when that is at most half the current one (after
  /// many erasures). Releases the slot array when no key is left.
  void ShrinkToFit();

  JoinKey key(size_t slot) const { return static_cast<JoinKey>(Slot(slot)[0]); }
  /// The key's access clock (see PartitionGroup::SplitColdest).
  int64_t touch(size_t slot) const {
    return static_cast<int64_t>(Slot(slot)[1]);
  }
  /// Access clocks are non-negative: the all-ones word marks an empty
  /// slot.
  void set_touch(size_t slot, int64_t touch) {
    Slot(slot)[1] = static_cast<uint64_t>(touch);
  }
  RowId first(size_t slot, int stream) const {
    return static_cast<RowId>(Slot(slot)[2 + static_cast<size_t>(stream)]);
  }
  RowId last(size_t slot, int stream) const {
    return static_cast<RowId>(Slot(slot)[2 + static_cast<size_t>(stream)] >>
                              32);
  }
  void set_chain(size_t slot, int stream, RowId first, RowId last) {
    Slot(slot)[2 + static_cast<size_t>(stream)] =
        static_cast<uint64_t>(first) | (static_cast<uint64_t>(last) << 32);
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
  /// The access-clock word of an empty slot.
  static constexpr uint64_t kEmpty = UINT64_MAX;
  static constexpr size_t kMinCapacity = 8;

  size_t capacity() const { return words_.size() / stride_; }
  size_t Home(JoinKey key) const {
    return static_cast<size_t>(SecondaryKeyHash(key) >> shift_);
  }
  uint64_t* Slot(size_t slot) { return &words_[slot * stride_]; }
  const uint64_t* Slot(size_t slot) const { return &words_[slot * stride_]; }
  size_t SkipEmpty(size_t slot) const {
    const size_t cap = capacity();
    while (slot < cap && Slot(slot)[1] == kEmpty) ++slot;
    return slot;
  }
  /// Fills the empty `slot` with `key`, clock 0 and empty chains.
  size_t Claim(size_t slot, JoinKey key) {
    uint64_t* w = Slot(slot);
    w[0] = static_cast<uint64_t>(key);
    w[1] = 0;
    ++size_;
    return slot;
  }
  /// Moves every key into a fresh slot array of `new_capacity` slots (a
  /// power of two; 0 releases the array).
  void Rehash(size_t new_capacity);

  /// Words per slot: key, access clock, one (first, last) word per stream.
  size_t stride_;
  /// capacity() * stride_ words; an empty slot's clock word is kEmpty
  /// and an empty chain's word is all ones (first = last = kNoRow).
  std::vector<uint64_t> words_;
  size_t mask_ = 0;
  int shift_ = 64;
  int64_t size_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_STATE_KEY_INDEX_H_
