#include <gtest/gtest.h>

#include <set>

#include "runtime/cluster.h"
#include "state/group_merge.h"
#include "state/partition_group.h"
#include "state/state_manager.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::AllResults;
using testing::SmallClusterConfig;
using testing::ToMultiset;

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key, Tick timestamp) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = timestamp;
  t.payload = "pp";
  return t;
}

TEST(WindowProbeTest, FiltersCombinationsBeyondTheWindow) {
  PartitionGroup group(0, 2);
  group.ProbeAndInsert(MakeTuple(0, 1, 5, /*ts=*/0), nullptr, nullptr,
                       /*window=*/100);
  group.ProbeAndInsert(MakeTuple(0, 2, 5, /*ts=*/150), nullptr, nullptr, 100);
  // Arriving at t=200: joins the ts=150 tuple (span 50) but not ts=0.
  std::vector<JoinResult> results;
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(1, 3, 5, 200), &results, nullptr,
                                 100),
            1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].member_seqs, (MemberSeqs{2, 3}));
}

TEST(WindowProbeTest, ThreeWaySpanUsesMinAndMax) {
  PartitionGroup group(0, 3);
  group.ProbeAndInsert(MakeTuple(0, 1, 5, 0), nullptr, nullptr, 100);
  group.ProbeAndInsert(MakeTuple(1, 2, 5, 60), nullptr, nullptr, 100);
  // Arriving at 110: span(0, 60, 110) = 110 > 100 → no result; but with
  // window 120 it qualifies.
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(2, 3, 5, 110), nullptr, nullptr,
                                 100),
            0);
  PartitionGroup group2(0, 3);
  group2.ProbeAndInsert(MakeTuple(0, 1, 5, 0), nullptr, nullptr, 120);
  group2.ProbeAndInsert(MakeTuple(1, 2, 5, 60), nullptr, nullptr, 120);
  EXPECT_EQ(group2.ProbeAndInsert(MakeTuple(2, 3, 5, 110), nullptr, nullptr,
                                  120),
            1);
}

TEST(WindowProbeTest, ZeroWindowMeansUnbounded) {
  PartitionGroup group(0, 2);
  group.ProbeAndInsert(MakeTuple(0, 1, 5, 0), nullptr, nullptr, 0);
  EXPECT_EQ(group.ProbeAndInsert(MakeTuple(1, 2, 5, 1000000), nullptr,
                                 nullptr, 0),
            1);
}

TEST(EvictBeforeTest, MovesExpiredTuplesAndAccounting) {
  PartitionGroup group(3, 2);
  group.InsertOnly(MakeTuple(0, 1, 5, 10));
  group.InsertOnly(MakeTuple(0, 2, 5, 90));
  group.InsertOnly(MakeTuple(1, 3, 6, 20));
  const int64_t bytes_before = group.bytes();

  PartitionGroup evicted(3, 2);
  EXPECT_EQ(group.EvictBefore(/*cutoff=*/50, &evicted), 2);
  EXPECT_EQ(group.tuple_count(), 1);
  EXPECT_EQ(evicted.tuple_count(), 2);
  EXPECT_EQ(group.bytes() + evicted.bytes(), bytes_before);
  // The surviving tuple is the ts=90 one.
  ASSERT_EQ(group.SortedKeysForStream(0).size(), 1u);
  ASSERT_EQ(group.SortedKeysForStream(0)[0], 5);
  EXPECT_EQ(group.KeyTuples(5, 0).front().seq, 2);
  // Re-running evicts nothing.
  PartitionGroup none(3, 2);
  EXPECT_EQ(group.EvictBefore(50, &none), 0);
}

TEST(StateManagerEvictTest, SerializesEvictedGroupsAndDropsEmpties) {
  StateManager state(2, std::nullopt, /*window=*/100);
  state.ProcessTuple(0, MakeTuple(0, 1, 5, 10), nullptr);
  state.ProcessTuple(1, MakeTuple(0, 2, 1 << 20, 10), nullptr);
  state.ProcessTuple(1, MakeTuple(1, 3, 1 << 20, 500), nullptr);
  const int64_t tuples_before = state.total_tuples();

  auto evicted = state.EvictExpired(/*cutoff=*/100);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(state.total_tuples(), tuples_before - 2);
  // Partition 0 became empty and was dropped entirely.
  EXPECT_EQ(state.FindGroup(0), nullptr);
  EXPECT_NE(state.FindGroup(1), nullptr);
  // Blobs decode back to the evicted tuples.
  for (const auto& group : evicted) {
    StatusOr<PartitionGroup> decoded = PartitionGroup::Deserialize(group.blob);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->tuple_count(), 1);
  }
}

TEST(StateManagerEvictTest, EncodesOnlyTheRequestedPartitions) {
  StateManager state(2, std::nullopt, /*window=*/100);
  for (PartitionId p = 0; p < 3; ++p) {
    state.ProcessTuple(p, MakeTuple(0, 1 + p, 5, 10), nullptr);
    state.ProcessTuple(p, MakeTuple(1, 4 + p, 5, 20), nullptr);
  }
  const std::set<PartitionId> encode = {1};
  auto evicted = state.EvictExpired(/*cutoff=*/100, &encode);
  ASSERT_EQ(evicted.size(), 3u);
  for (const auto& group : evicted) {
    // Every group reports what it evicted; only partition 1 is encoded.
    EXPECT_EQ(group.tuple_count, 2);
    EXPECT_EQ(group.bytes, 2 * (Tuple::kHeaderBytes + 2));
    EXPECT_EQ(group.raw_bytes, 16 + 8 * 2 + group.bytes);
    if (group.partition != 1) {
      EXPECT_TRUE(group.blob.empty()) << "partition " << group.partition;
      continue;
    }
    StatusOr<PartitionGroup> decoded = PartitionGroup::Deserialize(group.blob);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->tuple_count(), 2);
  }
  EXPECT_EQ(state.total_tuples(), 0);
}

TEST(WindowCrossJoinTest, RespectsWindow) {
  PartitionGroup older(0, 2);
  older.InsertOnly(MakeTuple(0, 1, 5, 0));
  PartitionGroup newer(0, 2);
  newer.InsertOnly(MakeTuple(1, 2, 5, 80));
  newer.InsertOnly(MakeTuple(1, 3, 5, 300));
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr,
                                 /*window=*/100),
            1);
  EXPECT_EQ(CrossJoinGenerations(older, newer, nullptr, nullptr, 0), 2);
}

/// The paper's claim: the adaptation techniques carry over to infinite
/// streams with finite windows. All-memory windowed runs define the
/// reference; spill + eviction + cleanup must reproduce it exactly.
ClusterConfig WindowedConfig() {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = MinutesToTicks(2);
  config.join_window_ticks = SecondsToTicks(20);
  return config;
}

TEST(WindowedClusterTest, AllMemoryWindowProducesFewerResults) {
  ClusterConfig windowed = WindowedConfig();
  windowed.strategy = AdaptationStrategy::kNoAdaptation;
  ClusterConfig unbounded = windowed;
  unbounded.join_window_ticks = 0;

  RunResult windowed_result = Cluster(windowed).Run();
  RunResult unbounded_result = Cluster(unbounded).Run();
  EXPECT_GT(windowed_result.runtime_results, 0);
  EXPECT_LT(windowed_result.runtime_results,
            unbounded_result.runtime_results);
}

TEST(WindowedClusterTest, EvictionBoundsStateWithoutSpilling) {
  ClusterConfig config = WindowedConfig();
  config.strategy = AdaptationStrategy::kNoAdaptation;
  Cluster cluster(config);
  RunResult result = cluster.Run();

  int64_t evicted = 0;
  for (const auto& c : result.engines) evicted += c.evicted_tuples;
  EXPECT_GT(evicted, 0);
  // With a 20 s window plus one 10 s eviction period of lag, resident
  // state stays around ~30 s of input (~400 KiB/engine at this rate) —
  // a fraction of the 2-minute run's total (~1.5 MiB/engine).
  double peak = 0;
  for (const TimeSeries& s : result.engine_memory) {
    peak = std::max(peak, s.Max());
  }
  EXPECT_LT(peak, 512.0 * kKiB)
      << "window eviction should keep state around one window of input";
  // And the final state is far below the unbounded accumulation.
  double final_total = 0;
  for (const TimeSeries& s : result.engine_memory) {
    final_total += s.Last();
  }
  EXPECT_LT(final_total, 1024.0 * kKiB);
}

TEST(WindowedClusterTest, SpillPlusCleanupMatchesWindowedReference) {
  // A one-shot load shift: engine 0's partitions are hot for the first
  // minute (their window-resident state exceeds the threshold → spills),
  // then go cold — the residual memory tuples of the spilled partitions
  // expire in place, forcing eviction generations onto disk.
  ClusterConfig config = WindowedConfig();
  config.placement_fractions = {0.75, 0.25};
  config.workload.fluctuation.enabled = true;
  config.workload.fluctuation.one_shot = true;
  config.workload.fluctuation.phase_ticks = MinutesToTicks(1);
  config.workload.fluctuation.hot_multiplier = 10.0;
  std::vector<JoinResult> reference = testing::ReferenceResults(config);
  ASSERT_FALSE(reference.empty());

  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 384 * kKiB;
  Cluster cluster(config);
  RunResult result = cluster.Run();
  ASSERT_GT(result.spill_events, 0);
  int64_t eviction_segments = 0;
  for (const auto& c : result.engines) {
    eviction_segments += c.eviction_segments;
  }
  EXPECT_GT(eviction_segments, 0)
      << "spilled partitions must preserve evicted tuples for cleanup";

  auto all = ToMultiset(AllResults(result));
  for (const auto& [key, count] : all) {
    ASSERT_EQ(count, 1) << "duplicate windowed result " << key;
  }
  EXPECT_EQ(all, ToMultiset(reference));
}

TEST(WindowedClusterTest, LazyDiskMatchesWindowedReference) {
  ClusterConfig config = WindowedConfig();
  config.placement_fractions = {0.75, 0.25};
  std::vector<JoinResult> reference = testing::ReferenceResults(config);

  config.strategy = AdaptationStrategy::kLazyDisk;
  config.spill.memory_threshold_bytes = 448 * kKiB;
  // Restore is requested but must stay inert under window semantics
  // (it would break eviction-generation bookkeeping; see MaybeRestore).
  config.restore.enabled = true;
  config.restore.low_watermark = 0.9;
  Cluster cluster(config);
  RunResult result = cluster.Run();
  int64_t restored = 0;
  for (const auto& c : result.engines) restored += c.restored_segments;
  EXPECT_EQ(restored, 0) << "restore must be inert in windowed mode";
  EXPECT_EQ(ToMultiset(AllResults(result)), ToMultiset(reference));
}

}  // namespace
}  // namespace dcape
