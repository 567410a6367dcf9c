#include "state/group_merge.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace dcape {
namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key, int64_t value = 0,
                int64_t category = 0) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.value = value;
  t.category = category;
  t.payload = "x";
  return t;
}

TEST(CrossJoinGenerationsTest, TwoWayCrossTermsOnly) {
  // older: a1 (s0), b1 (s1); newer: a2 (s0), b2 (s1) — all same key.
  // Full join = 4 combos; same-generation combos (a1,b1) and (a2,b2)
  // are excluded → exactly (a1,b2) and (a2,b1).
  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5));
  older.InsertOnly(MakeTuple(1, 1, 5));
  PartitionGroup newer(0, 2);
  newer.InsertOnly(MakeTuple(0, 2, 5));
  newer.InsertOnly(MakeTuple(1, 2, 5));

  std::vector<JoinResult> results;
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, &results), 2);
  std::set<std::string> keys;
  for (const JoinResult& r : results) {
    keys.insert(r.EncodeKey());
    EXPECT_NE(r.member_seqs[0], r.member_seqs[1]);
  }
  EXPECT_EQ(keys.size(), 2u);
}

TEST(CrossJoinGenerationsTest, ThreeWayCount) {
  // One tuple per stream per generation, same key: 2^3 − 2 = 6 cross
  // combos.
  PartitionGroup older(0, 3);
  PartitionGroup newer(0, 3);
  for (StreamId s = 0; s < 3; ++s) {
    older.InsertOnly(MakeTuple(s, 1, 9));
    newer.InsertOnly(MakeTuple(s, 2, 9));
  }
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr), 6);
}

TEST(CrossJoinGenerationsTest, EmptySideYieldsNothing) {
  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5));
  PartitionGroup newer(0, 2);
  // newer has no stream-1 tuple and older has no stream-1 tuple either:
  // nothing can combine.
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr), 0);
}

TEST(CrossJoinGenerationsTest, OneSidedStreamsStillCombine) {
  // older holds only stream-0 state, newer only stream-1 state: the only
  // combos are cross-generation by construction.
  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5));
  older.InsertOnly(MakeTuple(0, 2, 5));
  PartitionGroup newer(0, 2);
  newer.InsertOnly(MakeTuple(1, 3, 5));
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr), 2);
}

TEST(CrossJoinGenerationsTest, ProjectionApplied) {
  ResultProjection projection;
  projection.group_stream = 1;
  projection.op = AggregateOp::kMin;

  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5, /*value=*/100, /*cat=*/3));
  PartitionGroup newer(0, 2);
  newer.InsertOnly(MakeTuple(1, 2, 5, /*value=*/40, /*cat=*/8));

  std::vector<JoinResult> results;
  ASSERT_EQ(CrossJoinGenerations(older, newer, &projection, &results), 1);
  EXPECT_EQ(results[0].group_key, 8);
  EXPECT_EQ(results[0].agg_value, 40);
}

TEST(CrossJoinGenerationsTest, MatchesBruteForceOnMixedKeys) {
  // Brute-force check: total = merged-join; cross = total − per-gen.
  PartitionGroup older(0, 2);
  PartitionGroup newer(0, 2);
  int64_t seq = 0;
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i <= k; ++i) {
      older.InsertOnly(MakeTuple(i % 2, seq++, k));
      newer.InsertOnly(MakeTuple((i + 1) % 2, seq++, k));
    }
  }

  auto full_join_count = [](const PartitionGroup& g) {
    int64_t total = 0;
    for (JoinKey key : g.SortedKeysForStream(0)) {
      total += static_cast<int64_t>(g.KeyTuples(key, 0).size() *
                                    g.KeyTuples(key, 1).size());
    }
    return total;
  };

  PartitionGroup merged(0, 2);
  for (StreamId s = 0; s < 2; ++s) {
    for (const PartitionGroup* g : {&older, &newer}) {
      for (JoinKey key : g->SortedKeysForStream(s)) {
        for (const PartitionGroup::RowRef t : g->KeyTuples(key, s)) {
          merged.InsertOnly(t.ToTuple(s, key));
        }
      }
    }
  }
  const int64_t expected = full_join_count(merged) - full_join_count(older) -
                           full_join_count(newer);
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr), expected);
}

TEST(CrossJoinGenerationsTest, ResultOrderIsAFunctionOfTheStates) {
  // Restore sends the cross results in the order this returns them, so
  // two `newer` generations with the same contents must yield the same
  // sequence. `grown` first holds 5,000 extra keys that EvictBefore then
  // drops: its blob is byte-identical to `plain`'s, only its insertion
  // history differs.
  PartitionGroup older(0, 2);
  for (JoinKey key = 0; key < 100; ++key) {
    older.InsertOnly(MakeTuple(0, key, key));
  }
  auto fill = [](PartitionGroup* g) {
    for (JoinKey key = 0; key < 64; ++key) {
      Tuple t = MakeTuple(1, 1000 + key, key);
      t.timestamp = 100;
      g->InsertOnly(t);
    }
  };
  PartitionGroup plain(0, 2);
  fill(&plain);
  PartitionGroup grown(0, 2);
  for (JoinKey key = 10000; key < 15000; ++key) {
    grown.InsertOnly(MakeTuple(1, key, key));  // timestamp 0: evicted
  }
  fill(&grown);
  PartitionGroup expired(0, 2);
  ASSERT_EQ(grown.EvictBefore(/*cutoff=*/50, &expired), 5000);

  std::string plain_blob;
  std::string grown_blob;
  plain.Serialize(&plain_blob);
  grown.Serialize(&grown_blob);
  ASSERT_EQ(plain_blob, grown_blob);

  std::vector<JoinResult> from_plain;
  std::vector<JoinResult> from_grown;
  ASSERT_EQ(CrossJoinGenerations(older, plain, nullptr, &from_plain), 64);
  ASSERT_EQ(CrossJoinGenerations(older, grown, nullptr, &from_grown), 64);
  for (size_t i = 0; i < from_plain.size(); ++i) {
    EXPECT_EQ(from_plain[i].EncodeKey(), from_grown[i].EncodeKey())
        << "result " << i;
  }
}

}  // namespace
}  // namespace dcape
