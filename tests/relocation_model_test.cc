#include <gtest/gtest.h>

#include "core/global_coordinator.h"
#include "runtime/cluster.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::AllResults;
using testing::SmallClusterConfig;
using testing::ToMultiset;

TEST(RelocationModelTest, Names) {
  EXPECT_STREQ(RelocationModelName(RelocationModel::kPairwise), "pairwise");
  EXPECT_STREQ(RelocationModelName(RelocationModel::kGlobalRebalance),
               "global-rebalance");
}

/// Coordinator-level test: under global rebalance, one trigger plans a
/// whole round of moves, executed one 8-step protocol at a time.
TEST(RelocationModelTest, GlobalRebalancePlansMultipleMoves) {
  Network::Config net_config;
  net_config.latency_ticks = 1;
  net_config.bytes_per_tick = 1 << 30;
  Network network(net_config);

  std::vector<std::pair<int, Message>> engine_inbox;
  CoordinatorConfig config;
  config.node_id = 10;
  for (int e = 0; e < 4; ++e) {
    config.engine_nodes.push_back(e);
    config.engine_memory_thresholds.push_back(10000);
    network.RegisterNode(e, [&engine_inbox, e](Tick, const Message& m) {
      engine_inbox.push_back({e, m});
    });
  }
  config.split_hosts = {20};
  network.RegisterNode(20, [](Tick, const Message&) {});
  config.strategy = AdaptationStrategy::kRelocationOnly;
  config.relocation.model = RelocationModel::kGlobalRebalance;
  config.relocation.sr_timer_period = 10;
  config.relocation.min_time_between = 10;
  config.relocation.min_relocate_bytes = 10;
  GlobalCoordinator coordinator(config, &network);

  // Loads: 4000, 3000, 500, 500 (mean 2000): two surplus engines must
  // send 2000 and 1000; deficits are 1500 each.
  auto report = [&](EngineId engine, int64_t bytes) {
    StatsReport r;
    r.engine = engine;
    r.state_bytes = bytes;
    r.num_groups = 4;
    Message m = MakeStatsReportMessage(engine, 10, r);
    coordinator.OnMessage(1, m);
  };
  report(0, 4000);
  report(1, 3000);
  report(2, 500);
  report(3, 500);

  coordinator.OnTick(10);
  network.DeliverWaves(20);
  // First move started: engine 0 (largest surplus) asked to move.
  ASSERT_EQ(engine_inbox.size(), 1u);
  EXPECT_EQ(engine_inbox[0].first, 0);
  const auto& first =
      std::get<ComputePartitionsToMove>(engine_inbox[0].second.payload);
  EXPECT_EQ(first.amount_bytes, 1500);  // fills the larger deficit fully

  // Abort the move (sender has nothing) — the next queued move must
  // start immediately, not wait for the timer.
  PartitionsToMove reply;
  reply.relocation_id = first.relocation_id;
  reply.sender = 0;
  Message abort_msg;
  abort_msg.type = MessageType::kPartitionsToMove;
  abort_msg.from = 0;
  abort_msg.to = 10;
  abort_msg.payload = reply;
  coordinator.OnMessage(21, abort_msg);
  network.DeliverWaves(30);
  ASSERT_GE(engine_inbox.size(), 2u);
  EXPECT_EQ(engine_inbox[1].second.type,
            MessageType::kComputePartitionsToMove);
  EXPECT_GE(coordinator.counters().relocations_started, 2);
}

TEST(RelocationModelTest, GlobalRebalanceBalancesFourEngines) {
  ClusterConfig config = SmallClusterConfig();
  config.num_engines = 4;
  config.workload.num_partitions = 24;
  config.placement_fractions = {0.55, 0.25, 0.1, 0.1};
  config.strategy = AdaptationStrategy::kRelocationOnly;
  config.relocation.model = RelocationModel::kGlobalRebalance;
  config.run_duration = MinutesToTicks(2);
  config.collect_results = false;
  config.cleanup.collect_results = false;
  Cluster cluster(config);
  RunResult result = cluster.Run();

  ASSERT_GT(result.coordinator.relocations_completed, 1);
  double min_mem = 1e18;
  double max_mem = 0;
  for (const TimeSeries& series : result.engine_memory) {
    min_mem = std::min(min_mem, series.Last());
    max_mem = std::max(max_mem, series.Last());
  }
  ASSERT_GT(max_mem, 0);
  EXPECT_GT(min_mem / max_mem, 0.5)
      << "rebalance should leave all four engines near the mean";
}

TEST(RelocationModelTest, GlobalRebalanceRemainsExact) {
  ClusterConfig config = SmallClusterConfig();
  config.num_engines = 3;
  config.placement_fractions = {0.6, 0.3, 0.1};
  config.run_duration = SecondsToTicks(40);
  std::vector<JoinResult> reference = testing::ReferenceResults(config);

  config.strategy = AdaptationStrategy::kLazyDisk;
  config.relocation.model = RelocationModel::kGlobalRebalance;
  Cluster cluster(config);
  RunResult result = cluster.Run();
  EXPECT_GT(result.coordinator.relocations_completed, 0);
  EXPECT_EQ(ToMultiset(AllResults(result)), ToMultiset(reference));
}

}  // namespace
}  // namespace dcape
