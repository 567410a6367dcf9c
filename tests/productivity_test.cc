#include "core/productivity.h"

#include <gtest/gtest.h>

#include "core/local_controller.h"
#include "state/state_manager.h"

namespace dcape {
namespace {

GroupStats MakeStats(PartitionId p, int64_t bytes, int64_t outputs) {
  GroupStats g;
  g.partition = p;
  g.bytes = bytes;
  g.outputs = outputs;
  g.productivity =
      bytes > 0 ? static_cast<double>(outputs) / static_cast<double>(bytes)
                : 0.0;
  return g;
}

TEST(ProductivityTrackerTest, CumulativeIsIdentity) {
  ProductivityTracker tracker(
      ProductivityConfig{ProductivityModel::kCumulative, 0.5});
  std::vector<GroupStats> stats = {MakeStats(0, 100, 50)};
  tracker.Roll(stats);
  tracker.Refine(&stats);
  EXPECT_DOUBLE_EQ(stats[0].productivity, 0.5);
}

TEST(ProductivityTrackerTest, EwmaFirstWindowMatchesInstantRate) {
  ProductivityTracker tracker(
      ProductivityConfig{ProductivityModel::kEwma, 0.5});
  std::vector<GroupStats> stats = {MakeStats(0, 100, 40)};
  tracker.Roll(stats);
  tracker.Refine(&stats);
  EXPECT_DOUBLE_EQ(stats[0].productivity, 0.4);
}

TEST(ProductivityTrackerTest, EwmaDecaysWhenGroupGoesQuiet) {
  ProductivityTracker tracker(
      ProductivityConfig{ProductivityModel::kEwma, 0.5});
  // Window 1: produced 40 of 100 bytes (rate 0.4).
  std::vector<GroupStats> stats = {MakeStats(0, 100, 40)};
  tracker.Roll(stats);
  // Windows 2..4: no new outputs.
  for (int i = 0; i < 3; ++i) {
    tracker.Roll({MakeStats(0, 100, 40)});
  }
  std::vector<GroupStats> refined = {MakeStats(0, 100, 40)};
  tracker.Refine(&refined);
  EXPECT_LT(refined[0].productivity, 0.06);  // 0.4 * 0.5^3 = 0.05
  EXPECT_GT(refined[0].productivity, 0.0);
}

TEST(ProductivityTrackerTest, EwmaRanksRecentlyHotAboveFormerlyHot) {
  ProductivityTracker tracker(
      ProductivityConfig{ProductivityModel::kEwma, 0.5});
  // Group 0 was hot long ago; group 1 just became hot. Cumulative ratios
  // favour group 0 (100/100 vs 30/100) but EWMA must favour group 1.
  tracker.Roll({MakeStats(0, 100, 100), MakeStats(1, 100, 0)});
  tracker.Roll({MakeStats(0, 100, 100), MakeStats(1, 100, 30)});
  tracker.Roll({MakeStats(0, 100, 100), MakeStats(1, 100, 60)});
  tracker.Roll({MakeStats(0, 100, 100), MakeStats(1, 100, 90)});

  std::vector<GroupStats> refined = {MakeStats(0, 100, 100),
                                     MakeStats(1, 100, 90)};
  tracker.Refine(&refined);
  EXPECT_GT(refined[1].productivity, refined[0].productivity);
  // Cumulative says the opposite.
  EXPECT_LT(30.0 / 100.0, 100.0 / 100.0);
}

TEST(ProductivityTrackerTest, DepartedGroupsForgotten) {
  ProductivityTracker tracker(
      ProductivityConfig{ProductivityModel::kEwma, 1.0});
  tracker.Roll({MakeStats(0, 100, 80)});
  // Group 0 spilled away; a new generation reappears later with fresh
  // counters — its first window must not inherit the old delta baseline.
  tracker.Roll({MakeStats(1, 100, 0)});
  tracker.Roll({MakeStats(0, 100, 10), MakeStats(1, 100, 0)});
  std::vector<GroupStats> refined = {MakeStats(0, 100, 10)};
  tracker.Refine(&refined);
  EXPECT_DOUBLE_EQ(refined[0].productivity, 0.1);
}

TEST(ProductivityTrackerTest, ModelNames) {
  EXPECT_STREQ(ProductivityModelName(ProductivityModel::kCumulative),
               "cumulative");
  EXPECT_STREQ(ProductivityModelName(ProductivityModel::kEwma), "ewma");
}

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload = std::string(30, 'x');
  return t;
}

TEST(LocalControllerEwmaTest, EwmaChangesSpillChoice) {
  SpillConfig spill;
  spill.memory_threshold_bytes = 1;
  spill.spill_fraction = 0.01;  // one victim
  spill.ss_timer_period = 10;

  // Partition 0: produced results long ago (high cumulative). Partition
  // 1: producing now. Build state, then roll windows so the EWMA sees
  // partition 0 as quiet.
  auto build_state = [](StateManager* state) {
    state->ProcessTuple(0, MakeTuple(0, 1, 100), nullptr);
    state->ProcessTuple(0, MakeTuple(1, 2, 100), nullptr);  // old output
  };

  StateManager cumulative_state(2);
  build_state(&cumulative_state);
  StateManager ewma_state(2);
  build_state(&ewma_state);

  LocalController cumulative(
      spill, ProductivityConfig{ProductivityModel::kCumulative, 0.5}, 1);
  LocalController ewma(spill,
                       ProductivityConfig{ProductivityModel::kEwma, 0.5}, 1);

  // Window 1: both partitions as-is (partition 0's output counted).
  cumulative.RollProductivityWindow(cumulative_state);
  ewma.RollProductivityWindow(ewma_state);

  // Partition 1 becomes productive *now*.
  for (auto* state : {&cumulative_state, &ewma_state}) {
    state->ProcessTuple(1, MakeTuple(0, 3, 2000), nullptr);
    state->ProcessTuple(1, MakeTuple(1, 4, 2000), nullptr);  // fresh output
  }
  cumulative.RollProductivityWindow(cumulative_state);
  ewma.RollProductivityWindow(ewma_state);
  cumulative.RollProductivityWindow(cumulative_state);
  ewma.RollProductivityWindow(ewma_state);

  // Cumulative: both have 1 output over similar bytes → victim is the
  // id-tiebreak (partition 0 == the stale one, coincidentally). EWMA:
  // partition 0's rate decayed, partition 1's is fresh → victim must be
  // partition 0, *not* partition 1.
  std::vector<SpillRequest> ewma_plan = ewma.PlanSpill(10, ewma_state);
  ASSERT_EQ(ewma_plan.size(), 1u);
  EXPECT_EQ(ewma_plan[0].partition, 0);
  EXPECT_EQ(ewma_plan[0].bytes,
            SpillTargetBytes(ewma_state.total_bytes(),
                             spill.memory_threshold_bytes,
                             spill.spill_fraction));
  // And the relocation choice flips accordingly (most productive moves).
  std::vector<PartitionId> move = ewma.ChoosePartitionsToMove(ewma_state, 1);
  ASSERT_EQ(move.size(), 1u);
  EXPECT_EQ(move[0], 1);
}

}  // namespace
}  // namespace dcape
