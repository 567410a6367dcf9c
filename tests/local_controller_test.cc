#include "core/local_controller.h"

#include <gtest/gtest.h>

namespace dcape {
namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key, int payload = 50) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload.assign(static_cast<size_t>(payload), 'x');
  return t;
}

int64_t TotalBytes(const std::vector<SpillRequest>& plan) {
  int64_t total = 0;
  for (const SpillRequest& r : plan) total += r.bytes;
  return total;
}

SpillConfig SmallSpillConfig() {
  SpillConfig config;
  config.memory_threshold_bytes = 500;
  config.spill_fraction = 0.5;
  config.policy = SpillPolicy::kLeastProductiveFirst;
  config.ss_timer_period = 100;
  return config;
}

TEST(LocalControllerTest, NoSpillBelowThreshold) {
  LocalController controller(SmallSpillConfig(), ProductivityConfig{}, 1);
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(0, 1, 1, 10), nullptr);
  EXPECT_TRUE(controller.PlanSpill(100, state).empty());
}

TEST(LocalControllerTest, SpillsAboutTheConfiguredFraction) {
  LocalController controller(SmallSpillConfig(), ProductivityConfig{}, 1);
  StateManager state(2);
  // ~8 groups of ~82 bytes: total ≈ 656 > 500 threshold.
  for (int p = 0; p < 8; ++p) {
    state.ProcessTuple(p, MakeTuple(0, p, p * 1000, 50), nullptr);
  }
  ASSERT_GT(state.total_bytes(), 500);
  std::vector<SpillRequest> plan = controller.PlanSpill(100, state);
  ASSERT_FALSE(plan.empty());
  for (const SpillRequest& r : plan) {
    EXPECT_LE(r.bytes, state.FindGroup(r.partition)->bytes());
  }
  // >= 50% of state, but not all of it.
  EXPECT_GE(TotalBytes(plan), state.total_bytes() / 2);
  EXPECT_LT(TotalBytes(plan), state.total_bytes());
}

TEST(LocalControllerTest, TimerGatesChecks) {
  LocalController controller(SmallSpillConfig(), ProductivityConfig{}, 1);
  StateManager state(2);
  for (int p = 0; p < 10; ++p) {
    state.ProcessTuple(p, MakeTuple(0, p, p * 1000, 80), nullptr);
  }
  // Timer period is 100; tick 50 must not fire.
  EXPECT_TRUE(controller.PlanSpill(50, state).empty());
  EXPECT_FALSE(controller.PlanSpill(100, state).empty());
  // Immediately after firing, the timer is re-armed.
  EXPECT_TRUE(controller.PlanSpill(101, state).empty());
}

TEST(LocalControllerTest, ForcedSpillTakesLeastProductive) {
  LocalController controller(SmallSpillConfig(), ProductivityConfig{}, 1);
  StateManager state(2);
  // Partition 0 produces output (productive); partition 1 does not.
  state.ProcessTuple(0, MakeTuple(0, 1, 100, 30), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 2, 100, 30), nullptr);  // 1 result
  state.ProcessTuple(1, MakeTuple(0, 3, 2000, 30), nullptr);

  std::vector<SpillRequest> plan = controller.PlanForcedSpill(state, 1);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].partition, 1);
  EXPECT_EQ(TotalBytes(plan), 1);
}

TEST(LocalControllerTest, RelocationPrefersMostProductive) {
  LocalController controller(SmallSpillConfig(), ProductivityConfig{}, 1);
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(0, 1, 100, 30), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 2, 100, 30), nullptr);  // productive
  state.ProcessTuple(1, MakeTuple(0, 3, 2000, 30), nullptr);

  std::vector<PartitionId> chosen =
      controller.ChoosePartitionsToMove(state, 1);
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0], 0);
}

TEST(LocalControllerTest, LockedGroupsNeverSelected) {
  LocalController controller(SmallSpillConfig(), ProductivityConfig{}, 1);
  StateManager state(2);
  for (int p = 0; p < 4; ++p) {
    state.ProcessTuple(p, MakeTuple(0, p, p * 1000, 200), nullptr);
  }
  state.LockGroups({0, 1, 2, 3});
  EXPECT_TRUE(controller.PlanSpill(100, state).empty());
  EXPECT_TRUE(controller.PlanForcedSpill(state, 1000).empty());
  EXPECT_TRUE(controller.ChoosePartitionsToMove(state, 1000).empty());
}

}  // namespace
}  // namespace dcape
