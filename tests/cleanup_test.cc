#include "cleanup/cleanup.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "runtime/exec_pool.h"
#include "state/partition_group.h"
#include "storage/disk_backend.h"

namespace dcape {
namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload = "pl";
  return t;
}

/// Serializes a group holding `tuples` for `partition`.
std::string GroupBlob(PartitionId partition, int num_streams,
                      const std::vector<Tuple>& tuples) {
  PartitionGroup group(partition, num_streams);
  for (const Tuple& t : tuples) group.InsertOnly(t);
  std::string blob;
  group.Serialize(&blob);
  return blob;
}

std::unique_ptr<SpillStore> MakeStore(EngineId engine) {
  return std::make_unique<SpillStore>(engine, SpillStore::Config{},
                                      std::make_unique<MemoryDiskBackend>());
}

CleanupConfig TestConfig() {
  CleanupConfig config;
  config.collect_results = true;
  return config;
}

TEST(CleanupTest, NothingSpilledMeansNothingMissing) {
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(0, 1, 5), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 1, 5), nullptr);
  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({nullptr}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 0);
  EXPECT_EQ(stats->total_ticks, 0);
}

TEST(CleanupTest, CrossGenerationComboIsProduced) {
  // Disk generation holds the stream-0 tuple; memory holds the stream-1
  // match. The runtime could never join them.
  auto store = MakeStore(0);
  ASSERT_TRUE(
      store->WriteSegment(0, 100, GroupBlob(0, 2, {MakeTuple(0, 1, 5)}), 1)
          .ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 9, 5), nullptr);

  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->result_count, 1);
  EXPECT_EQ(stats->results[0].member_seqs, (MemberSeqs{1, 9}));
  EXPECT_EQ(stats->results[0].join_key, 5);
  EXPECT_EQ(stats->partitions_cleaned, 1);
  EXPECT_GT(stats->total_ticks, 0);
}

TEST(CleanupTest, SameGenerationCombosAreNotReproduced) {
  // The spilled generation contains a full match (produced at runtime
  // before the spill); cleanup must not emit it again.
  auto store = MakeStore(0);
  ASSERT_TRUE(store
                  ->WriteSegment(0, 100,
                                 GroupBlob(0, 2,
                                           {MakeTuple(0, 1, 5),
                                            MakeTuple(1, 2, 5)}),
                                 2)
                  .ok());
  StateManager state(2);  // empty memory remainder
  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 0);
}

TEST(CleanupTest, ThreeGenerationsCountedExactlyOnce) {
  // Three generations of partition 0, each with one tuple per stream and
  // the same key: 3x3 = 9 total combos, 3 were produced at runtime
  // (same-generation), so cleanup owes exactly 6 — no duplicates.
  auto store = MakeStore(0);
  ASSERT_TRUE(store
                  ->WriteSegment(0, 100,
                                 GroupBlob(0, 2,
                                           {MakeTuple(0, 1, 5),
                                            MakeTuple(1, 1, 5)}),
                                 2)
                  .ok());
  ASSERT_TRUE(store
                  ->WriteSegment(0, 200,
                                 GroupBlob(0, 2,
                                           {MakeTuple(0, 2, 5),
                                            MakeTuple(1, 2, 5)}),
                                 2)
                  .ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(0, 3, 5), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 3, 5), nullptr);

  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 6);
  std::set<std::string> unique;
  for (const JoinResult& r : stats->results) unique.insert(r.EncodeKey());
  EXPECT_EQ(unique.size(), 6u);
  // Same-generation combos (1,1), (2,2), (3,3) must be absent.
  for (const JoinResult& r : stats->results) {
    EXPECT_NE(r.member_seqs[0], r.member_seqs[1]);
  }
}

TEST(CleanupTest, ThreeWayJoinSubsetExpansion) {
  // m=3: disk gen has one tuple per stream (key 7); memory gen has one
  // tuple per stream. Total combos 2^3 = 8; same-gen 2 → cleanup owes 6.
  auto store = MakeStore(0);
  ASSERT_TRUE(store
                  ->WriteSegment(0, 50,
                                 GroupBlob(0, 3,
                                           {MakeTuple(0, 1, 7),
                                            MakeTuple(1, 1, 7),
                                            MakeTuple(2, 1, 7)}),
                                 3)
                  .ok());
  StateManager state(3);
  state.ProcessTuple(0, MakeTuple(0, 2, 7), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 2, 7), nullptr);
  state.ProcessTuple(0, MakeTuple(2, 2, 7), nullptr);

  CleanupProcessor processor(TestConfig(), 3);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 6);
}

TEST(CleanupTest, GenerationsSpreadAcrossEngines) {
  // Partition spilled at engine 0, then relocated and its remainder lives
  // at engine 1 — cleanup must still join across.
  auto store0 = MakeStore(0);
  auto store1 = MakeStore(1);
  ASSERT_TRUE(
      store0->WriteSegment(3, 10, GroupBlob(3, 2, {MakeTuple(0, 1, 9)}), 1)
          .ok());
  StateManager state0(2);
  StateManager state1(2);
  state1.ProcessTuple(3, MakeTuple(1, 2, 9), nullptr);

  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats =
      processor.Run({store0.get(), store1.get()}, {&state0, &state1});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 1);
  ASSERT_EQ(stats->engine_ticks.size(), 2u);
}

TEST(CleanupTest, CountingWorksWithoutCollecting) {
  auto store = MakeStore(0);
  ASSERT_TRUE(
      store->WriteSegment(0, 10, GroupBlob(0, 2, {MakeTuple(0, 1, 5)}), 1)
          .ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 2, 5), nullptr);

  CleanupConfig config;
  config.collect_results = false;
  CleanupProcessor processor(config, 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 1);
  EXPECT_TRUE(stats->results.empty());
}

TEST(CleanupTest, ParallelCleanupTimeIsMaxOverEngines) {
  // Two independent partitions on two engines: total time is the max of
  // the per-engine times, not the sum (engines clean in parallel).
  auto store0 = MakeStore(0);
  auto store1 = MakeStore(1);
  const JoinKey key_p0 = 5;
  const JoinKey key_p1 = 5 + (1LL << 20);
  ASSERT_TRUE(
      store0->WriteSegment(0, 10, GroupBlob(0, 2, {MakeTuple(0, 1, key_p0)}), 1)
          .ok());
  ASSERT_TRUE(
      store1->WriteSegment(1, 10, GroupBlob(1, 2, {MakeTuple(0, 1, key_p1)}), 1)
          .ok());
  StateManager state0(2);
  StateManager state1(2);
  state0.ProcessTuple(1, MakeTuple(1, 2, key_p1), nullptr);
  state1.ProcessTuple(0, MakeTuple(1, 2, key_p0), nullptr);

  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats =
      processor.Run({store0.get(), store1.get()}, {&state0, &state1});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 2);
  Tick max_ticks = 0;
  for (Tick t : stats->engine_ticks) max_ticks = std::max(max_ticks, t);
  EXPECT_EQ(stats->total_ticks, max_ticks);
  EXPECT_LT(stats->total_ticks,
            stats->engine_ticks[0] + stats->engine_ticks[1]);
}

TEST(CleanupTest, ExecPoolRunIsBitIdenticalToSerial) {
  // The same multi-partition, multi-engine scenario run serially and on
  // ExecPools of several widths: every CleanupStats field and the exact
  // result ordering must match the serial run.
  auto build = [](std::unique_ptr<SpillStore>* store0,
                  std::unique_ptr<SpillStore>* store1,
                  StateManager* state0, StateManager* state1) {
    *store0 = MakeStore(0);
    *store1 = MakeStore(1);
    for (PartitionId p = 0; p < 6; ++p) {
      const JoinKey key = 100 + p;
      ASSERT_TRUE((*store0)
                      ->WriteSegment(p, 10 + p,
                                     GroupBlob(p, 2,
                                               {MakeTuple(0, p * 10 + 1, key),
                                                MakeTuple(1, p * 10 + 2, key)}),
                                     2)
                      .ok());
      ASSERT_TRUE((*store1)
                      ->WriteSegment(p, 50 + p,
                                     GroupBlob(p, 2,
                                               {MakeTuple(0, p * 10 + 3, key)}),
                                     1)
                      .ok());
      state0->ProcessTuple(p, MakeTuple(1, p * 10 + 4, key), nullptr);
      // Partition 5 gets no memory remainder on engine 1.
      if (p != 5) state1->ProcessTuple(p, MakeTuple(0, p * 10 + 5, key), nullptr);
    }
  };

  std::unique_ptr<SpillStore> store0, store1;
  StateManager state0(2), state1(2);
  build(&store0, &store1, &state0, &state1);
  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> serial =
      processor.Run({store0.get(), store1.get()}, {&state0, &state1});
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->result_count, 0);

  for (int workers : {1, 2, 4, 8}) {
    std::unique_ptr<SpillStore> pstore0, pstore1;
    StateManager pstate0(2), pstate1(2);
    build(&pstore0, &pstore1, &pstate0, &pstate1);
    ExecPool pool(workers);
    StatusOr<CleanupStats> parallel = processor.Run(
        {pstore0.get(), pstore1.get()}, {&pstate0, &pstate1}, &pool);
    ASSERT_TRUE(parallel.ok()) << "workers=" << workers;
    EXPECT_EQ(parallel->result_count, serial->result_count);
    EXPECT_EQ(parallel->partitions_cleaned, serial->partitions_cleaned);
    EXPECT_EQ(parallel->total_ticks, serial->total_ticks);
    EXPECT_EQ(parallel->engine_ticks, serial->engine_ticks);
    ASSERT_EQ(parallel->results.size(), serial->results.size());
    for (size_t i = 0; i < serial->results.size(); ++i) {
      EXPECT_EQ(parallel->results[i].EncodeKey(), serial->results[i].EncodeKey())
          << "workers=" << workers << " result " << i;
    }
  }
}

TEST(CleanupTest, KeyMismatchAcrossGenerationsYieldsNothing) {
  auto store = MakeStore(0);
  ASSERT_TRUE(
      store->WriteSegment(0, 10, GroupBlob(0, 2, {MakeTuple(0, 1, 5)}), 1)
          .ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 2, 6), nullptr);  // different key
  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 0);
}

}  // namespace
}  // namespace dcape
