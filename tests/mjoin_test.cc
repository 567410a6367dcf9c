#include "operators/mjoin.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "storage/disk_backend.h"

namespace dcape {
namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload = "abc";
  return t;
}

class MJoinTest : public ::testing::Test {
 protected:
  MJoinTest()
      : store_(0, SpillStore::Config{}, std::make_unique<MemoryDiskBackend>()),
        join_(3, &store_) {}

  static constexpr int64_t kNoSplit = std::numeric_limits<int64_t>::max();

  /// Spills each of `partitions` whole, one segment per group: the plan
  /// the local controller makes when its target covers every group.
  StatusOr<MJoin::SpillOutcome> SpillWhole(
      const std::vector<PartitionId>& partitions, Tick now) {
    std::vector<SpillRequest> plan;
    for (PartitionId p : partitions) {
      const PartitionGroup* group = join_.state().FindGroup(p);
      plan.push_back(SpillRequest{p, group->bytes(), /*whole_group=*/true});
    }
    return join_.SpillGradual(plan, now, kNoSplit, /*max_depth=*/0);
  }

  SpillStore store_;
  MJoin join_;
};

TEST_F(MJoinTest, ProcessRoutesToPartitionGroups) {
  std::vector<JoinResult> results;
  join_.Process(1, MakeTuple(0, 1, 100), &results);
  join_.Process(1, MakeTuple(1, 1, 100), &results);
  join_.Process(1, MakeTuple(2, 1, 100), &results);
  EXPECT_EQ(results.size(), 1u);
  EXPECT_EQ(join_.state().group_count(), 1);
}

TEST_F(MJoinTest, SpillFreezesGroupsToDisk) {
  join_.Process(1, MakeTuple(0, 1, 100), nullptr);
  join_.Process(2, MakeTuple(0, 2, 200), nullptr);
  const int64_t bytes_before = join_.state().total_bytes();

  StatusOr<MJoin::SpillOutcome> outcome = SpillWhole({1}, 50);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->groups, 1);
  EXPECT_EQ(outcome->tuples, 1);
  EXPECT_GT(outcome->bytes, 0);
  EXPECT_GT(outcome->io_ticks, 0);
  EXPECT_LT(join_.state().total_bytes(), bytes_before);
  ASSERT_EQ(store_.segments().size(), 1u);
  EXPECT_EQ(store_.segments()[0].partition, 1);
  EXPECT_EQ(store_.segments()[0].spill_time, 50);
}

TEST_F(MJoinTest, SpillSkipsLockedGroups) {
  join_.Process(1, MakeTuple(0, 1, 100), nullptr);
  join_.state().LockGroups({1});
  StatusOr<MJoin::SpillOutcome> outcome = SpillWhole({1}, 0);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->groups, 0);
  EXPECT_EQ(join_.state().group_count(), 1);
}

TEST_F(MJoinTest, NewGenerationGrowsAfterSpill) {
  join_.Process(1, MakeTuple(0, 1, 100), nullptr);
  ASSERT_TRUE(SpillWhole({1}, 0).ok());
  EXPECT_EQ(join_.state().group_count(), 0);
  // New tuples with the same partition id form a fresh group; they do NOT
  // see the spilled state (that's the cleanup's job).
  std::vector<JoinResult> results;
  join_.Process(1, MakeTuple(1, 1, 100), &results);
  join_.Process(1, MakeTuple(2, 1, 100), &results);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(join_.state().group_count(), 1);
  // A second spill of the same partition creates another generation.
  ASSERT_TRUE(SpillWhole({1}, 10).ok());
  EXPECT_EQ(store_.segments().size(), 2u);
}

TEST(MJoinWithoutStoreTest, SpillFailsPrecondition) {
  MJoin join(2, nullptr);
  const std::vector<SpillRequest> plan = {
      SpillRequest{0, 1, /*whole_group=*/true}};
  EXPECT_EQ(join.SpillGradual(plan, 0, 1, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dcape
