#include "state/partition_group.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <set>
#include <vector>

namespace dcape {

// Set by the allocation test; read by the operator new at the end of
// this file.
bool g_count_allocations = false;
int64_t g_allocations = 0;

namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key,
                const std::string& payload = "pp") {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = seq;
  t.payload = payload;
  return t;
}

TEST(PartitionGroupTest, NoResultUntilAllStreamsMatch) {
  PartitionGroup group(0, 3);
  std::vector<JoinResult> results;
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(0, 1, 7), &results), 0);
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(1, 1, 7), &results), 0);
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(2, 1, 7), &results), 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].join_key, 7);
  EXPECT_EQ(results[0].member_seqs, (MemberSeqs{1, 1, 1}));
}

TEST(PartitionGroupTest, DifferentKeysDoNotJoin) {
  PartitionGroup group(0, 2);
  std::vector<JoinResult> results;
  group.ProbeAndInsert(MakeTuple(0, 1, 7), &results);
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(1, 2, 8), &results), 0);
  EXPECT_TRUE(results.empty());
}

TEST(PartitionGroupTest, CrossProductCount) {
  // 2 tuples in stream 0, 3 in stream 1 with key k; a new stream-2 tuple
  // produces 2*3 = 6 results.
  PartitionGroup group(0, 3);
  std::vector<JoinResult> results;
  group.ProbeAndInsert(MakeTuple(0, 1, 5), nullptr);
  group.ProbeAndInsert(MakeTuple(0, 2, 5), nullptr);
  group.ProbeAndInsert(MakeTuple(1, 1, 5), nullptr);
  group.ProbeAndInsert(MakeTuple(1, 2, 5), nullptr);
  group.ProbeAndInsert(MakeTuple(1, 3, 5), nullptr);
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(2, 9, 5), &results), 6);
  // All results distinct.
  std::set<std::string> keys;
  for (const JoinResult& r : results) keys.insert(r.EncodeKey());
  EXPECT_EQ(keys.size(), 6u);
}

TEST(PartitionGroupTest, MultiplicativeFactorMath) {
  // The paper's example: 5 tuples per stream with the same join value →
  // 5*5*5 = 125 total results for a 3-way join.
  PartitionGroup group(0, 3);
  int64_t total = 0;
  for (int i = 0; i < 5; ++i) {
    for (StreamId s = 0; s < 3; ++s) {
      total += group.ProbeAndInsert(MakeTuple(s, i, 1), nullptr);
    }
  }
  EXPECT_EQ(total, 125);
  EXPECT_EQ(group.outputs(), 125);
}

TEST(PartitionGroupTest, ByteAndTupleAccounting) {
  PartitionGroup group(3, 2);
  Tuple t = MakeTuple(0, 1, 2, "0123456789");
  group.ProbeAndInsert(t, nullptr);
  EXPECT_EQ(group.tuple_count(), 1);
  EXPECT_EQ(group.bytes(), t.ByteSize());
  group.ProbeAndInsert(MakeTuple(1, 2, 2, "0123456789"), nullptr);
  EXPECT_EQ(group.tuple_count(), 2);
  EXPECT_EQ(group.bytes(), 2 * t.ByteSize());
}

TEST(PartitionGroupTest, ProductivityIsOutputsPerByte) {
  PartitionGroup group(0, 2);
  EXPECT_EQ(group.productivity(), 0.0);
  group.ProbeAndInsert(MakeTuple(0, 1, 1), nullptr);
  group.ProbeAndInsert(MakeTuple(1, 1, 1), nullptr);  // 1 result
  EXPECT_GT(group.productivity(), 0.0);
  EXPECT_DOUBLE_EQ(group.productivity(),
                   1.0 / static_cast<double>(group.bytes()));
  GroupStats stats = group.Stats();
  EXPECT_EQ(stats.outputs, 1);
  EXPECT_EQ(stats.bytes, group.bytes());
}

TEST(PartitionGroupTest, SerializeDeserializeRoundTrip) {
  PartitionGroup group(11, 3);
  for (int i = 0; i < 4; ++i) {
    for (StreamId s = 0; s < 3; ++s) {
      group.ProbeAndInsert(MakeTuple(s, i, i % 2, "payload"), nullptr);
    }
  }
  std::string blob;
  group.Serialize(&blob);
  StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(blob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->partition(), 11);
  EXPECT_EQ(restored->num_streams(), 3);
  EXPECT_EQ(restored->tuple_count(), group.tuple_count());
  EXPECT_EQ(restored->bytes(), group.bytes());
  EXPECT_EQ(restored->outputs(), group.outputs());
  // Re-serialization is stable modulo hash-table iteration order: compare
  // the per-stream per-key seq multisets instead.
  for (StreamId s = 0; s < 3; ++s) {
    const std::vector<JoinKey> original_keys = group.SortedKeysForStream(s);
    const std::vector<JoinKey> restored_keys =
        restored->SortedKeysForStream(s);
    ASSERT_EQ(original_keys.size(), restored_keys.size());
    for (JoinKey key : original_keys) {
      ASSERT_FALSE(restored->KeyTuples(key, s).empty());
      EXPECT_EQ(restored->KeyTuples(key, s).size(),
                group.KeyTuples(key, s).size());
    }
  }
}

TEST(PartitionGroupTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(PartitionGroup::Deserialize("garbage").ok());
  std::string blob;
  PartitionGroup group(0, 2);
  group.Serialize(&blob);
  blob += "extra";
  EXPECT_FALSE(PartitionGroup::Deserialize(blob).ok());
}

TEST(PartitionGroupTest, MergeCombinesStateAndCounters) {
  PartitionGroup a(4, 2);
  a.ProbeAndInsert(MakeTuple(0, 1, 9), nullptr);
  a.ProbeAndInsert(MakeTuple(1, 2, 9), nullptr);  // 1 output

  PartitionGroup b(4, 2);
  b.ProbeAndInsert(MakeTuple(0, 3, 9), nullptr);

  const int64_t bytes = a.bytes() + b.bytes();
  a.MergeFrom(std::move(b));
  EXPECT_EQ(a.tuple_count(), 3);
  EXPECT_EQ(a.bytes(), bytes);
  EXPECT_EQ(a.outputs(), 1);
  // Post-merge probes see the merged state: a stream-1 tuple with key 9
  // matches both stream-0 tuples.
  EXPECT_EQ(a.ProbeAndInsert(MakeTuple(1, 4, 9), nullptr), 2);
}

TEST(PartitionGroupTest, InsertOnlySkipsProbing) {
  PartitionGroup group(0, 2);
  group.InsertOnly(MakeTuple(0, 1, 3));
  group.InsertOnly(MakeTuple(1, 2, 3));
  EXPECT_EQ(group.outputs(), 0);
  EXPECT_EQ(group.tuple_count(), 2);
}

TEST(PartitionGroupTest, SteadyStateProbeAllocatesNothing) {
  PartitionGroup group(0, 3);
  std::vector<JoinResult> results;
  results.reserve(64);
  // Key 8 holds two stream-0 and two stream-1 tuples and three stream-2
  // tuples, so its stream-2 list has spare capacity for a fourth.
  for (const StreamId s : {0, 1, 2, 0, 1, 2, 2}) {
    group.ProbeAndInsert(MakeTuple(s, 5, 8), &results);
  }
  results.clear();

  const Tuple arrival = MakeTuple(2, 9, 8);
  const int64_t before = g_allocations;
  g_count_allocations = true;
  const int64_t produced = group.ProbeAndInsert(arrival, &results);
  const JoinResult copy = results.back();
  g_count_allocations = false;
  EXPECT_EQ(produced, 4);
  EXPECT_EQ(copy, results.back());
  EXPECT_EQ(g_allocations - before, 0)
      << "probing, building four results and copying one allocated";
}

TEST(PartitionGroupTest, NewKeysAllocateAmortizedNothing) {
  // Every arrival brings a key the group has not seen. The key index and
  // both arenas grow geometrically, so 100,000 new keys cost a few dozen
  // allocations in all, not a few per key.
  constexpr int kKeys = 100000;
  PartitionGroup group(0, 3);
  const int64_t before = g_allocations;
  g_count_allocations = true;
  for (int k = 0; k < kKeys; ++k) {
    group.ProbeAndInsert(MakeTuple(k % 3, k, k), nullptr);
  }
  g_count_allocations = false;
  EXPECT_EQ(group.DistinctKeyCount(), kKeys);
  EXPECT_LT(g_allocations - before, 100)
      << "inserting " << kKeys << " new keys allocated per key";
}

}  // namespace
}  // namespace dcape

// Counts heap allocations while g_count_allocations is set (the
// allocation test above); otherwise the default behaviour. GCC reads
// free() on memory from operator new as a mismatch, but these
// replacements pair malloc with free on purpose.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t size) {
  if (dcape::g_count_allocations) ++dcape::g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
