// Block-grown arenas (src/state/block_arena.h): where BlockArena and
// PayloadArena place elements and payloads, that nothing past block 0
// moves as they grow, that compaction frees the blocks it empties, and
// that a partition group built on them keeps rows and payload bytes in
// place while it grows and releases blocks when it compacts.

#include "state/block_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "state/partition_group.h"
#include "tuple/tuple.h"

namespace dcape {
namespace {

constexpr size_t kBlock = PayloadArena::kBlockBytes;

/// A row-sized element, as the partition group's row arena holds.
struct Wide {
  int64_t words[6];
};
using WideArena = BlockArena<Wide, 12>;

std::string Bytes(size_t n, char fill) { return std::string(n, fill); }

TEST(BlockArenaTest, BlockZeroGrowsLikeAVectorUpToAFullBlock) {
  WideArena arena;
  std::vector<size_t> capacities;
  for (size_t i = 0; i < WideArena::kBlockSize + 1; ++i) {
    const size_t before = arena.capacity();
    EXPECT_EQ(arena.Allot(1), i);
    if (arena.capacity() != before) capacities.push_back(arena.capacity());
  }
  // One element at a time: 1, 2, 4, ..., 4096, then a whole second
  // block.
  std::vector<size_t> want;
  for (size_t c = 1; c <= WideArena::kBlockSize; c *= 2) want.push_back(c);
  want.push_back(2 * WideArena::kBlockSize);
  EXPECT_EQ(capacities, want);

  // A bulk allotment grows block 0 to size + n when n exceeds the size.
  BlockArena<char, 18> bytes;
  bytes.Allot(100);
  EXPECT_EQ(bytes.capacity(), 100u);
  bytes.Allot(300);
  EXPECT_EQ(bytes.capacity(), 400u);
  bytes.Allot(1);
  EXPECT_EQ(bytes.capacity(), 800u);
  bytes.Reserve(2000);
  EXPECT_EQ(bytes.capacity(), 2401u);
}

TEST(BlockArenaTest, GrowthPastBlockZeroLeavesEarlierElementsInPlace) {
  WideArena arena;
  for (int64_t i = 0; i < 3 * static_cast<int64_t>(WideArena::kBlockSize);
       ++i) {
    arena[arena.Allot(1)] = Wide{{i, i + 1, i + 2, i + 3, i + 4, i + 5}};
  }
  // Block 0 is full and two more blocks exist; none of it moves while
  // ten more blocks are added.
  std::vector<const Wide*> where;
  for (size_t i = 0; i < arena.size(); ++i) where.push_back(&arena[i]);
  for (size_t i = 0; i < 10 * WideArena::kBlockSize; ++i) arena.Allot(1);
  EXPECT_EQ(arena.capacity(), 13 * WideArena::kBlockSize);
  for (size_t i = 0; i < where.size(); ++i) {
    ASSERT_EQ(&arena[i], where[i]) << "element " << i << " moved";
    ASSERT_EQ(arena[i].words[0], static_cast<int64_t>(i));
    ASSERT_EQ(arena[i].words[5], static_cast<int64_t>(i) + 5);
  }
}

TEST(BlockArenaTest, TruncateFreesTheBlocksPastTheEndButNotBlockZero) {
  WideArena arena;
  for (size_t i = 0; i < 5 * WideArena::kBlockSize; ++i) arena.Allot(1);
  EXPECT_EQ(arena.capacity(), 5 * WideArena::kBlockSize);
  arena.Truncate(WideArena::kBlockSize + 1);
  EXPECT_EQ(arena.size(), WideArena::kBlockSize + 1);
  EXPECT_EQ(arena.capacity(), 2 * WideArena::kBlockSize);
  arena.Truncate(0);
  EXPECT_EQ(arena.capacity(), WideArena::kBlockSize);
  arena.Clear();
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.size(), 0u);
}

TEST(PayloadArenaTest, APayloadNeverStraddlesABlock) {
  PayloadArena arena;
  // Fill block 0 up to 10 bytes short of its end.
  const uint32_t first = arena.Store(Bytes(kBlock - 10, 'a'));
  EXPECT_EQ(first, 0u);
  // 10 bytes fit the tail exactly.
  const uint32_t tail = arena.Store(Bytes(10, 'b'));
  EXPECT_EQ(tail, kBlock - 10);
  EXPECT_EQ(arena.stored_bytes(), static_cast<int64_t>(kBlock));
  // Block 0 is full: the next 64 bytes open block 1.
  const uint32_t opener = arena.Store(Bytes(64, 'c'));
  EXPECT_EQ(opener, kBlock);
  // Fill block 1 to 5 bytes short; the next 64 bytes skip the 5-byte
  // tail, which counts as stored (dead) bytes.
  arena.Store(Bytes(kBlock - 64 - 5, 'd'));
  const uint32_t skipped = arena.Store(Bytes(64, 'e'));
  EXPECT_EQ(skipped, 2 * kBlock);
  EXPECT_EQ(arena.stored_bytes(), static_cast<int64_t>(2 * kBlock + 64));
  EXPECT_EQ(arena.resident_bytes(), static_cast<int64_t>(3 * kBlock));
  EXPECT_EQ(arena.Get(tail, 10), Bytes(10, 'b'));
  EXPECT_EQ(arena.Get(opener, 64), Bytes(64, 'c'));
  EXPECT_EQ(arena.Get(skipped, 64), Bytes(64, 'e'));
  EXPECT_EQ(arena.Get(first, kBlock - 10), Bytes(kBlock - 10, 'a'));
  // An empty payload takes no bytes and reads back empty.
  EXPECT_TRUE(arena.Get(arena.Store(""), 0).empty());
  EXPECT_EQ(arena.stored_bytes(), static_cast<int64_t>(2 * kBlock + 64));
}

TEST(PayloadArenaTest, APayloadLongerThanABlockGetsItsOwnRun) {
  PayloadArena arena;
  const uint32_t small = arena.Store("xyz");
  std::string long_payload(kBlock + 4321, ' ');
  for (size_t i = 0; i < long_payload.size(); ++i) {
    long_payload[i] = static_cast<char>('a' + i % 26);
  }
  const uint32_t run = arena.Store(long_payload);
  const uint32_t after = arena.Store("after");
  EXPECT_EQ(arena.Get(run, static_cast<uint32_t>(long_payload.size())),
            long_payload);
  // The run sits outside the blocks: the small payloads stay adjacent.
  EXPECT_EQ(small, 0u);
  EXPECT_EQ(after, 3u);
  EXPECT_EQ(arena.block_bytes(), 8u);
  EXPECT_EQ(arena.stored_bytes(),
            static_cast<int64_t>(8 + long_payload.size()));
  EXPECT_GE(arena.resident_bytes(),
            static_cast<int64_t>(8 + long_payload.size()));
  // A payload of exactly one block still goes in the blocks.
  const uint32_t whole = arena.Store(Bytes(kBlock, 'w'));
  EXPECT_EQ(whole, kBlock);
  EXPECT_EQ(arena.Get(whole, kBlock), Bytes(kBlock, 'w'));
}

TEST(PayloadArenaTest, CompactionSlidesKeptPayloadsAndFreesTheRest) {
  PayloadArena arena;
  struct Stored {
    uint32_t handle;
    std::string bytes;
  };
  std::vector<Stored> stored;
  // Seven blocks of 1000-byte payloads (262 to a block, then a gap)
  // with two long runs among them.
  for (int i = 0; i < 1600; ++i) {
    std::string bytes = i % 700 == 355 ? Bytes(kBlock + 1 + i, 'L')
                                       : Bytes(1000, static_cast<char>(
                                                         'a' + i % 26));
    stored.push_back({arena.Store(bytes), std::move(bytes)});
  }
  EXPECT_EQ(arena.resident_bytes() - arena.stored_bytes(),
            static_cast<int64_t>(7 * kBlock - arena.block_bytes()));
  // Keep every other payload (all short ones) and the second long run
  // only.
  PayloadArena::Compaction compaction(&arena);
  std::vector<Stored> kept;
  for (size_t i = 0; i < stored.size(); ++i) {
    if (i % 2 != 0 && i != 1055) continue;
    const auto size = static_cast<uint32_t>(stored[i].bytes.size());
    kept.push_back(
        {compaction.Slide(stored[i].handle, size), stored[i].bytes});
  }
  compaction.Seal();
  int64_t kept_bytes = 0;
  for (const Stored& s : kept) {
    ASSERT_EQ(arena.Get(s.handle, static_cast<uint32_t>(s.bytes.size())),
              s.bytes);
    kept_bytes += static_cast<int64_t>(s.bytes.size());
  }
  // 800 short payloads fill three blocks (262 each, then a gap) and 14
  // more open a fourth; the three blocks past it and the dropped run are
  // gone.
  EXPECT_EQ(arena.block_bytes(), 3 * kBlock + 14 * 1000);
  EXPECT_EQ(arena.stored_bytes(),
            kept_bytes + static_cast<int64_t>(3 * (kBlock - 262 * 1000)));
  EXPECT_EQ(arena.resident_bytes(),
            static_cast<int64_t>(4 * kBlock) + (kept_bytes - 800 * 1000));
}

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key,
                std::string payload) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = seq;
  t.payload = std::move(payload);
  return t;
}

TEST(PartitionGroupArenaTest, GrowthKeepsRowsAndPayloadBytesInPlace) {
  // 3 × 4,096 rows and about 1 MiB of payload: several blocks of each.
  PartitionGroup group(0, 2);
  constexpr int kTuples = 3 * 4096;
  for (int i = 0; i < kTuples; ++i) {
    group.ProbeAndInsert(MakeTuple(0, i, i % 97, std::string(80, 'p')),
                         nullptr);
  }
  std::vector<const char*> where;
  for (JoinKey key = 0; key < 97; ++key) {
    for (const PartitionGroup::RowRef row : group.KeyTuples(key, 0)) {
      where.push_back(row.payload.data());
    }
  }
  ASSERT_EQ(where.size(), static_cast<size_t>(kTuples));
  const int64_t resident = group.resident_bytes();
  for (int i = kTuples; i < 4 * kTuples; ++i) {
    group.ProbeAndInsert(MakeTuple(0, i, i % 97, std::string(80, 'q')),
                         nullptr);
  }
  EXPECT_GT(group.resident_bytes(), 3 * resident);
  // Each chain's first kTuples / 97-odd rows are the old ones, in order.
  size_t i = 0;
  for (JoinKey key = 0; key < 97; ++key) {
    size_t old_rows = 0;
    for (int j = static_cast<int>(key); j < kTuples; j += 97) ++old_rows;
    for (const PartitionGroup::RowRef row : group.KeyTuples(key, 0)) {
      if (old_rows == 0) break;
      ASSERT_EQ(row.payload.data(), where[i]) << "payload moved";
      ASSERT_EQ(row.payload, std::string(80, 'p'));
      ++i;
      --old_rows;
    }
  }
  EXPECT_EQ(i, where.size());
  EXPECT_LE(group.dead_bytes(), group.bytes());
}

TEST(PartitionGroupArenaTest, CompactionReleasesTrailingBlocks) {
  // Twelve row blocks and several payload blocks, then evict all but the
  // newest 500 tuples: the compaction that follows slides them to the
  // front and frees every block past them.
  PartitionGroup group(0, 2);
  constexpr int kTuples = 12 * 4096;
  for (int i = 0; i < kTuples; ++i) {
    group.ProbeAndInsert(
        MakeTuple(static_cast<StreamId>(i % 2), i, i % 1000,
                  std::string(40 + i % 50, static_cast<char>('a' + i % 26))),
        nullptr);
  }
  const int64_t grown = group.resident_bytes();
  PartitionGroup evicted(0, 2);
  EXPECT_EQ(group.EvictBefore(kTuples - 500, &evicted), kTuples - 500);
  EXPECT_EQ(group.tuple_count(), 500);
  EXPECT_LE(group.dead_bytes(), group.bytes());
  // What is left: the index (500 keys in 2,048 slots of 32 B), block 0
  // of rows (4,096 × 48 B) and block 0 of payload (256 KiB), nothing
  // past them.
  EXPECT_LE(group.resident_bytes(),
            2048 * 32 + 4096 * 48 + static_cast<int64_t>(kBlock));
  EXPECT_GT(grown, 10 * group.resident_bytes());
  for (JoinKey key = 0; key < 1000; ++key) {
    for (int s = 0; s < 2; ++s) {
      for (const PartitionGroup::RowRef row : group.KeyTuples(key, s)) {
        ASSERT_GE(row.timestamp, kTuples - 500);
        const auto seq = static_cast<int>(row.seq);
        ASSERT_EQ(row.payload,
                  std::string(40 + seq % 50,
                              static_cast<char>('a' + seq % 26)));
      }
    }
  }
  // The evicted side holds the rest, also spread over several blocks.
  EXPECT_EQ(evicted.tuple_count(), kTuples - 500);
  EXPECT_LE(evicted.dead_bytes(), evicted.bytes());
}

}  // namespace
}  // namespace dcape
