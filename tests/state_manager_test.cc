#include "state/state_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace dcape {
namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload = "xyz";
  return t;
}

TEST(StateManagerTest, CreatesGroupsOnDemand) {
  StateManager state(2);
  EXPECT_EQ(state.group_count(), 0);
  state.ProcessTuple(3, MakeTuple(0, 1, 100), nullptr);
  state.ProcessTuple(5, MakeTuple(0, 2, 200), nullptr);
  EXPECT_EQ(state.group_count(), 2);
  EXPECT_NE(state.FindGroup(3), nullptr);
  EXPECT_NE(state.FindGroup(5), nullptr);
  EXPECT_EQ(state.FindGroup(4), nullptr);
  EXPECT_EQ(state.PartitionIds(), (std::vector<PartitionId>{3, 5}));
}

TEST(StateManagerTest, TracksTotals) {
  StateManager state(2);
  std::vector<JoinResult> results;
  state.ProcessTuple(0, MakeTuple(0, 1, 7), &results);
  state.ProcessTuple(0, MakeTuple(1, 1, 7), &results);
  EXPECT_EQ(state.total_tuples(), 2);
  EXPECT_EQ(state.total_outputs(), 1);
  EXPECT_GT(state.total_bytes(), 0);
  EXPECT_EQ(state.total_bytes(), state.FindGroup(0)->bytes());
}

TEST(StateManagerTest, ExtractRemovesAndSerializes) {
  StateManager state(2);
  state.ProcessTuple(1, MakeTuple(0, 1, 10), nullptr);
  state.ProcessTuple(2, MakeTuple(0, 2, 20), nullptr);
  const int64_t bytes_before = state.total_bytes();

  auto extracted = state.ExtractGroups({1});
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(extracted[0].partition, 1);
  EXPECT_EQ(extracted[0].tuple_count, 1);
  EXPECT_FALSE(extracted[0].blob.empty());
  EXPECT_EQ(state.group_count(), 1);
  EXPECT_LT(state.total_bytes(), bytes_before);
  EXPECT_EQ(state.FindGroup(1), nullptr);
}

TEST(StateManagerTest, ExtractUnknownPartitionIsSkipped) {
  StateManager state(2);
  state.ProcessTuple(1, MakeTuple(0, 1, 10), nullptr);
  auto extracted = state.ExtractGroups({99, 1});
  EXPECT_EQ(extracted.size(), 1u);
}

TEST(StateManagerTest, InstallRestoresExtractedGroup) {
  StateManager source(2);
  source.ProcessTuple(4, MakeTuple(0, 1, 40), nullptr);
  source.ProcessTuple(4, MakeTuple(1, 2, 40), nullptr);
  auto extracted = source.ExtractGroups({4});
  ASSERT_EQ(extracted.size(), 1u);

  StateManager target(2);
  ASSERT_TRUE(target.InstallGroup(extracted[0].blob).ok());
  EXPECT_EQ(target.group_count(), 1);
  EXPECT_EQ(target.total_tuples(), 2);
  EXPECT_EQ(target.total_bytes(), extracted[0].bytes);

  // The installed state joins with new arrivals.
  std::vector<JoinResult> results;
  target.ProcessTuple(4, MakeTuple(0, 3, 40), &results);
  EXPECT_EQ(results.size(), 1u);
}

TEST(StateManagerTest, InstallIntoExistingGroupMerges) {
  StateManager source(2);
  source.ProcessTuple(4, MakeTuple(0, 1, 40), nullptr);
  auto extracted = source.ExtractGroups({4});

  StateManager target(2);
  target.ProcessTuple(4, MakeTuple(1, 9, 40), nullptr);
  ASSERT_TRUE(target.InstallGroup(extracted[0].blob).ok());
  EXPECT_EQ(target.group_count(), 1);
  EXPECT_EQ(target.total_tuples(), 2);
  std::vector<JoinResult> results;
  target.ProcessTuple(4, MakeTuple(0, 2, 40), &results);
  EXPECT_EQ(results.size(), 1u);  // joins the pre-existing stream-1 tuple
}

TEST(StateManagerTest, InstallRejectsStreamMismatch) {
  StateManager source(3);
  source.ProcessTuple(4, MakeTuple(0, 1, 40), nullptr);
  auto extracted = source.ExtractGroups({4});
  StateManager target(2);
  EXPECT_EQ(target.InstallGroup(extracted[0].blob).code(),
            StatusCode::kInvalidArgument);
}

TEST(StateManagerTest, LocksExcludeGroupsFromSnapshots) {
  StateManager state(2);
  state.ProcessTuple(1, MakeTuple(0, 1, 10), nullptr);
  state.ProcessTuple(2, MakeTuple(0, 2, 20), nullptr);
  state.LockGroups({1});
  EXPECT_TRUE(state.IsLocked(1));
  EXPECT_FALSE(state.IsLocked(2));
  EXPECT_EQ(state.SnapshotStats(/*exclude_locked=*/true).size(), 1u);
  EXPECT_EQ(state.SnapshotStats(/*exclude_locked=*/false).size(), 2u);
  state.UnlockGroups({1});
  EXPECT_EQ(state.SnapshotStats(/*exclude_locked=*/true).size(), 2u);
}

TEST(StateManagerTest, TotalsConservedAcrossExtractInstall) {
  StateManager a(2);
  for (int i = 0; i < 20; ++i) {
    a.ProcessTuple(i % 4, MakeTuple(i % 2, i, i % 4 * 100 + i % 3), nullptr);
  }
  const int64_t total_bytes = a.total_bytes();
  const int64_t total_tuples = a.total_tuples();

  StateManager b(2);
  auto extracted = a.ExtractGroups(a.PartitionIds());
  for (const auto& group : extracted) {
    ASSERT_TRUE(b.InstallGroup(group.blob).ok());
  }
  EXPECT_EQ(a.total_bytes(), 0);
  EXPECT_EQ(a.total_tuples(), 0);
  EXPECT_EQ(b.total_bytes(), total_bytes);
  EXPECT_EQ(b.total_tuples(), total_tuples);
}

// Sum of the resident groups' own figures, which the manager's running
// total must equal after every call.
int64_t SumOfGroupResidentBytes(const StateManager& state) {
  int64_t sum = 0;
  for (PartitionId p : state.PartitionIds()) {
    sum += state.FindGroup(p)->resident_bytes();
  }
  return sum;
}

TEST(StateManagerTest, ResidentBytesFollowEveryGroupChange) {
  StateManager state(2, std::nullopt, /*window_ticks=*/50);
  int64_t peak_tracked = 0;
  int64_t peak_resident = 0;
  auto check = [&](const char* after) {
    SCOPED_TRACE(after);
    EXPECT_EQ(state.resident_bytes(), SumOfGroupResidentBytes(state));
    peak_tracked = std::max(peak_tracked, state.total_bytes());
    peak_resident = std::max(peak_resident, state.resident_bytes());
    EXPECT_EQ(state.peak_bytes(), peak_tracked);
    EXPECT_EQ(state.peak_resident_bytes(), peak_resident);
    // The arenas hold every tracked byte.
    EXPECT_GE(state.resident_bytes(), state.total_bytes());
  };
  for (int i = 0; i < 600; ++i) {
    Tuple t = MakeTuple(i % 2, i, i % 37);
    t.timestamp = i;
    state.ProcessTuple(i % 3, std::move(t), nullptr);
    check("ProcessTuple");
  }
  ASSERT_FALSE(state.EvictExpired(/*cutoff=*/400).empty());
  check("EvictExpired");
  ASSERT_FALSE(state.ExtractColdState(0, state.FindGroup(0)->bytes() / 2,
                                      /*max_piece_bytes=*/1 << 20,
                                      /*max_depth=*/2)
                   .empty());
  check("ExtractColdState (partial)");
  auto extracted = state.ExtractGroups({1});
  ASSERT_EQ(extracted.size(), 1u);
  check("ExtractGroups");
  ASSERT_TRUE(state.InstallGroup(extracted[0].blob).ok());
  check("InstallGroup (new group)");
  ASSERT_TRUE(state.InstallGroup(extracted[0].blob).ok());
  check("InstallGroup (merge)");
  state.ExtractGroups(state.PartitionIds());
  check("ExtractGroups (all)");
  EXPECT_EQ(state.resident_bytes(), 0);
  EXPECT_GT(state.peak_resident_bytes(), 0);
}

}  // namespace
}  // namespace dcape
