#include "state/key_index.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace dcape {

void JoinKeyIndex::Erase(size_t slot) {
  DCAPE_CHECK_LT(slot, capacity());
  DCAPE_CHECK(!IsEmpty(Slot(slot)));
  size_t hole = slot;
  // Backward-shift deletion: a later key of the probe run moves into
  // the hole when the hole lies on its probe path (between its home
  // slot and where it sits), leaving a new hole behind it.
  for (size_t next = (hole + 1) & mask_; !IsEmpty(Slot(next));
       next = (next + 1) & mask_) {
    const size_t home = Home(key(next));
    if (((next - home) & mask_) < ((next - hole) & mask_)) continue;
    std::copy_n(Slot(next), stride_, Slot(hole));
    hole = next;
  }
  std::fill_n(Slot(hole), stride_, kEmptyWord);
  --size_;
}

void JoinKeyIndex::ShrinkToFit() {
  size_t fit = kMinCapacity;
  while (static_cast<size_t>(size_) * 8 > fit * 3) fit *= 2;
  if (size_ == 0) {
    Rehash(0);
  } else if (2 * fit <= capacity()) {
    Rehash(fit);
  }
}

void JoinKeyIndex::Rehash(size_t new_capacity) {
  std::vector<uint32_t> old;
  old.swap(words_);
  const size_t old_capacity = old.size() / stride_;
  if (new_capacity == 0) {
    DCAPE_CHECK_EQ(size_, 0);
    mask_ = 0;
    shift_ = 64;
    return;
  }
  DCAPE_CHECK(std::has_single_bit(new_capacity));
  DCAPE_CHECK_LE(static_cast<size_t>(size_) * 4, new_capacity * 3);
  words_.assign(new_capacity * stride_, kEmptyWord);
  mask_ = new_capacity - 1;
  shift_ = 64 - std::countr_zero(new_capacity);
  for (size_t s = 0; s < old_capacity; ++s) {
    const uint32_t* from = &old[s * stride_];
    if (IsEmpty(from)) continue;
    size_t slot = Home(static_cast<JoinKey>(Load64(from)));
    while (!IsEmpty(Slot(slot))) slot = (slot + 1) & mask_;
    std::copy_n(from, stride_, Slot(slot));
  }
}

}  // namespace dcape
