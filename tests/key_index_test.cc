#include "state/key_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace dcape {
namespace {

/// Each key's clock and stream-1 tail are derived from the key, so a
/// slot that moved (rehash, backward shift) must carry them along.
int64_t TouchOf(JoinKey key) { return (key & 0xffff) + 1; }
RowId TailOf(JoinKey key) { return static_cast<RowId>(key & 0xffffff); }

void ExpectMatches(const JoinKeyIndex& index, const std::set<JoinKey>& keys,
                   const std::set<JoinKey>& absent) {
  ASSERT_EQ(index.size(), static_cast<int64_t>(keys.size()));
  for (JoinKey key : keys) {
    const size_t slot = index.Find(key);
    ASSERT_NE(slot, JoinKeyIndex::kNoSlot) << key;
    EXPECT_EQ(index.key(slot), key);
    EXPECT_EQ(index.touch(slot), TouchOf(key));
    EXPECT_EQ(index.tail(slot, 0), kNoRow);
    EXPECT_EQ(index.tail(slot, 1), TailOf(key));
  }
  for (JoinKey key : absent) {
    EXPECT_EQ(index.Find(key), JoinKeyIndex::kNoSlot) << key;
  }
  std::set<JoinKey> iterated;
  for (size_t slot : index) iterated.insert(index.key(slot));
  EXPECT_EQ(iterated, keys);
}

TEST(JoinKeyIndexTest, MatchesASetThroughGrowthErasureAndShrink) {
  std::mt19937_64 rng(7);
  JoinKeyIndex index(/*num_streams=*/2);
  EXPECT_EQ(index.resident_bytes(), 0);
  std::set<JoinKey> keys;
  std::set<JoinKey> erased;
  // Dense runs plus scattered and negative keys: long probe runs that
  // wrap around the end of the slot array.
  for (int i = 0; i < 6000; ++i) {
    const JoinKey key = i % 3 == 0 ? static_cast<JoinKey>(rng() >> 1)
                                   : static_cast<JoinKey>(i) - 2000;
    const size_t slot = index.FindOrInsert(key);
    EXPECT_EQ(index.FindOrInsert(key), slot) << "a second insert moved it";
    index.set_touch(slot, TouchOf(key));
    index.set_tail(slot, 1, TailOf(key));
    keys.insert(key);
  }
  ExpectMatches(index, keys, erased);
  // Erase about half, in random order, looking each key up afresh.
  std::vector<JoinKey> order(keys.begin(), keys.end());
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t i = 0; i < order.size() / 2; ++i) {
    index.Erase(index.Find(order[i]));
    keys.erase(order[i]);
    erased.insert(order[i]);
  }
  ExpectMatches(index, keys, erased);
  // Down to a handful: the slot array shrinks, and releases when empty.
  const int64_t before = index.resident_bytes();
  for (size_t i = order.size() / 2; i + 5 < order.size(); ++i) {
    index.Erase(index.Find(order[i]));
    keys.erase(order[i]);
    erased.insert(order[i]);
  }
  index.ShrinkToFit();
  EXPECT_LT(index.resident_bytes(), before / 16);
  ExpectMatches(index, keys, erased);
  for (JoinKey key : std::set<JoinKey>(keys)) {
    index.Erase(index.Find(key));
    keys.erase(key);
  }
  index.ShrinkToFit();
  EXPECT_EQ(index.size(), 0);
  EXPECT_EQ(index.resident_bytes(), 0);
  EXPECT_EQ(index.Find(order.front()), JoinKeyIndex::kNoSlot);
}

TEST(JoinKeyIndexTest, SlotIsKeyClockAndOneTailPerStream) {
  // 8 bytes of key, 8 of access clock and a 4-byte tail per stream: 28
  // bytes at three streams, and one key takes the minimum 8 slots.
  JoinKeyIndex index(/*num_streams=*/3);
  const size_t slot = index.FindOrInsert(INT64_MIN);
  EXPECT_EQ(index.resident_bytes(), 8 * 28);
  EXPECT_EQ(index.touch(slot), 0);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(index.tail(slot, s), kNoRow);
  // The 64-bit fields sit at 4-byte alignment and keep every bit.
  index.set_touch(slot, INT64_MAX);
  index.set_tail(slot, 0, 0);
  index.set_tail(slot, 2, kNoRow - 1);
  EXPECT_EQ(index.Find(INT64_MIN), slot);
  EXPECT_EQ(index.key(slot), INT64_MIN);
  EXPECT_EQ(index.touch(slot), INT64_MAX);
  EXPECT_EQ(index.tail(slot, 0), 0u);
  EXPECT_EQ(index.tail(slot, 1), kNoRow);
  EXPECT_EQ(index.tail(slot, 2), kNoRow - 1);
}

}  // namespace
}  // namespace dcape
