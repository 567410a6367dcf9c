#include "core/global_coordinator.h"

#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"

namespace dcape {
namespace {

/// Harness: coordinator on node 10, engines on nodes 0/1/2, split host on
/// node 20; every outbound coordinator message is captured.
class GlobalCoordinatorTest : public ::testing::Test {
 protected:
  GlobalCoordinatorTest() : network_(FastNetwork()) {}

  static Network::Config FastNetwork() {
    Network::Config config;
    config.latency_ticks = 1;
    config.bytes_per_tick = 1 << 30;
    return config;
  }

  void Build(AdaptationStrategy strategy, int num_engines = 2) {
    CoordinatorConfig config;
    config.node_id = 10;
    for (int e = 0; e < num_engines; ++e) {
      config.engine_nodes.push_back(e);
      config.engine_memory_thresholds.push_back(1000);
      network_.RegisterNode(e, [this, e](Tick, const Message& m) {
        engine_inbox_.push_back({e, m});
      });
    }
    config.split_hosts = {20};
    network_.RegisterNode(20, [this](Tick, const Message& m) {
      split_inbox_.push_back(m);
    });
    config.strategy = strategy;
    config.relocation.sr_timer_period = 10;
    config.relocation.min_time_between = 50;
    config.relocation.theta_r = 0.8;
    config.relocation.min_relocate_bytes = 10;
    config.active.lb_timer_period = 10;
    config.active.lambda = 2.0;
    config.active.memory_pressure = 0.5;
    config.active.max_forced_spill_bytes = 1000;
    config.active.forced_spill_fraction = 0.5;
    coordinator_ = std::make_unique<GlobalCoordinator>(config, &network_);
  }

  void Report(Tick now, EngineId engine, int64_t bytes, int64_t groups = 10,
              int64_t outputs = 100) {
    StatsReport report;
    report.engine = engine;
    report.state_bytes = bytes;
    report.num_groups = groups;
    report.outputs_in_window = outputs;
    Message m = MakeStatsReportMessage(engine, 10, report);
    coordinator_->OnMessage(now, m);
  }

  void Pump(Tick now) { network_.DeliverWaves(now); }

  Network network_;
  std::unique_ptr<GlobalCoordinator> coordinator_;
  std::vector<std::pair<int, Message>> engine_inbox_;
  std::vector<Message> split_inbox_;
};

TEST_F(GlobalCoordinatorTest, NoRelocationWhenBalanced) {
  Build(AdaptationStrategy::kLazyDisk);
  Report(1, 0, 1000);
  Report(1, 1, 900);  // ratio 0.9 >= θ_r = 0.8
  coordinator_->OnTick(10);
  Pump(20);
  EXPECT_TRUE(engine_inbox_.empty());
  EXPECT_FALSE(coordinator_->relocation_in_flight());
}

TEST_F(GlobalCoordinatorTest, ImbalanceTriggersComputePartitionsToMove) {
  Build(AdaptationStrategy::kLazyDisk);
  Report(1, 0, 1000);
  Report(1, 1, 200);
  coordinator_->OnTick(10);
  Pump(20);
  ASSERT_EQ(engine_inbox_.size(), 1u);
  EXPECT_EQ(engine_inbox_[0].first, 0);  // max-load engine is the sender
  const auto& request =
      std::get<ComputePartitionsToMove>(engine_inbox_[0].second.payload);
  EXPECT_EQ(request.amount_bytes, 400);  // (1000-200)/2
  EXPECT_EQ(request.receiver, 1);
  EXPECT_TRUE(coordinator_->relocation_in_flight());
  EXPECT_EQ(coordinator_->counters().relocations_started, 1);
}

TEST_F(GlobalCoordinatorTest, SpillOnlyStrategyNeverRelocates) {
  Build(AdaptationStrategy::kSpillOnly);
  Report(1, 0, 1000);
  Report(1, 1, 0);
  coordinator_->OnTick(10);
  Pump(20);
  EXPECT_TRUE(engine_inbox_.empty());
}

TEST_F(GlobalCoordinatorTest, MinTimeBetweenRelocationsEnforced) {
  Build(AdaptationStrategy::kRelocationOnly);
  Report(1, 0, 1000);
  Report(1, 1, 200);
  coordinator_->OnTick(10);
  ASSERT_TRUE(coordinator_->relocation_in_flight());

  // Abort it (empty partitions) so in-flight state clears.
  PartitionsToMove reply;
  reply.relocation_id = 1;
  reply.sender = 0;
  Message m;
  m.type = MessageType::kPartitionsToMove;
  m.from = 0;
  m.to = 10;
  m.payload = reply;
  coordinator_->OnMessage(12, m);
  EXPECT_FALSE(coordinator_->relocation_in_flight());
  EXPECT_EQ(coordinator_->counters().relocations_aborted, 1);

  // Still inside τ_m = 50: the next timer ticks must not start another.
  coordinator_->OnTick(20);
  coordinator_->OnTick(30);
  EXPECT_FALSE(coordinator_->relocation_in_flight());
  // After τ_m elapses it may fire again.
  coordinator_->OnTick(70);
  EXPECT_TRUE(coordinator_->relocation_in_flight());
}

TEST_F(GlobalCoordinatorTest, FullProtocolSequence) {
  Build(AdaptationStrategy::kLazyDisk);
  Report(1, 0, 1000);
  Report(1, 1, 200);
  coordinator_->OnTick(10);
  Pump(20);
  ASSERT_EQ(engine_inbox_.size(), 1u);

  // Step 2: sender replies with partitions.
  PartitionsToMove reply;
  reply.relocation_id = 1;
  reply.sender = 0;
  reply.partitions = {3, 4};
  reply.bytes = 400;
  Message m;
  m.type = MessageType::kPartitionsToMove;
  m.from = 0;
  m.to = 10;
  m.payload = reply;
  coordinator_->OnMessage(21, m);
  Pump(30);

  // Step 3: the split host got a pause with the sender's node.
  ASSERT_EQ(split_inbox_.size(), 1u);
  ASSERT_EQ(split_inbox_[0].type, MessageType::kPausePartitions);
  const auto& pause = std::get<PausePartitions>(split_inbox_[0].payload);
  EXPECT_EQ(pause.partitions, (std::vector<PartitionId>{3, 4}));
  EXPECT_EQ(pause.sender_node, 0);

  // Step 4a: pause ack → transfer authorization to the sender.
  PauseAck ack;
  ack.relocation_id = 1;
  ack.split_host = 20;
  Message ack_msg;
  ack_msg.type = MessageType::kPauseAck;
  ack_msg.from = 20;
  ack_msg.to = 10;
  ack_msg.payload = ack;
  coordinator_->OnMessage(31, ack_msg);
  Pump(40);
  ASSERT_EQ(engine_inbox_.size(), 2u);
  EXPECT_EQ(engine_inbox_[1].second.type, MessageType::kTransferStates);

  // Step 7: receiver confirms install → routing update to split host.
  StatesInstalled installed;
  installed.relocation_id = 1;
  installed.receiver = 1;
  installed.bytes = 400;
  Message inst_msg;
  inst_msg.type = MessageType::kStatesInstalled;
  inst_msg.from = 1;
  inst_msg.to = 10;
  inst_msg.payload = installed;
  coordinator_->OnMessage(41, inst_msg);
  Pump(50);
  ASSERT_EQ(split_inbox_.size(), 2u);
  ASSERT_EQ(split_inbox_[1].type, MessageType::kUpdateRouting);
  const auto& update = std::get<UpdateRouting>(split_inbox_[1].payload);
  EXPECT_EQ(update.new_owner, 1);

  // Step 8b: routing ack completes the relocation.
  RoutingUpdated updated;
  updated.relocation_id = 1;
  updated.split_host = 20;
  Message upd_msg;
  upd_msg.type = MessageType::kRoutingUpdated;
  upd_msg.from = 20;
  upd_msg.to = 10;
  upd_msg.payload = updated;
  coordinator_->OnMessage(51, upd_msg);
  EXPECT_FALSE(coordinator_->relocation_in_flight());
  EXPECT_EQ(coordinator_->counters().relocations_completed, 1);
  EXPECT_EQ(coordinator_->counters().bytes_relocated, 400);
}

TEST_F(GlobalCoordinatorTest, ActiveDiskForcesSpillOnProductivitySkew) {
  Build(AdaptationStrategy::kActiveDisk);
  // Balanced memory (no relocation), high pressure, skewed productivity:
  // engine 0 productive (rate 100/10=10), engine 1 not (rate 1/10=0.1).
  Report(1, 0, 900, /*groups=*/10, /*outputs=*/100);
  Report(1, 1, 850, /*groups=*/10, /*outputs=*/1);
  coordinator_->OnTick(10);
  Pump(20);
  ASSERT_EQ(engine_inbox_.size(), 1u);
  EXPECT_EQ(engine_inbox_[0].first, 1);  // least productive engine spills
  const auto& cmd = std::get<ForceSpill>(engine_inbox_[0].second.payload);
  EXPECT_EQ(cmd.amount_bytes, 425);  // 0.5 * 850
  EXPECT_EQ(coordinator_->counters().forced_spills, 1);
}

TEST_F(GlobalCoordinatorTest, ActiveDiskRespectsMemoryPressureGuard) {
  Build(AdaptationStrategy::kActiveDisk);
  // Low usage (400+350 < 0.5 * 2000): no forced spill even with skew.
  Report(1, 0, 400, 10, 100);
  Report(1, 1, 350, 10, 1);
  coordinator_->OnTick(10);
  Pump(20);
  EXPECT_TRUE(engine_inbox_.empty());
}

TEST_F(GlobalCoordinatorTest, ActiveDiskVolumeCapHonored) {
  Build(AdaptationStrategy::kActiveDisk);
  Report(1, 0, 900, 10, 100);
  Report(1, 1, 850, 10, 1);
  coordinator_->OnTick(10);
  Pump(20);
  ASSERT_EQ(engine_inbox_.size(), 1u);

  // The engine reports back a spill of 990 bytes — nearly the 1000 cap.
  SpillComplete done;
  done.engine = 1;
  done.bytes_spilled = 990;
  Message done_msg;
  done_msg.type = MessageType::kSpillComplete;
  done_msg.from = 1;
  done_msg.to = 10;
  done_msg.payload = done;
  coordinator_->OnMessage(15, done_msg);

  // Next round: remaining budget is 10 bytes; 0.5*850=425 is clamped.
  Report(16, 0, 900, 10, 100);
  Report(16, 1, 850, 10, 1);
  coordinator_->OnTick(20);
  Pump(30);
  ASSERT_EQ(engine_inbox_.size(), 2u);
  const auto& cmd = std::get<ForceSpill>(engine_inbox_[1].second.payload);
  EXPECT_EQ(cmd.amount_bytes, 10);

  // And once the cap is consumed, no further forced spills.
  done.bytes_spilled = 10;
  done_msg.payload = done;
  coordinator_->OnMessage(25, done_msg);
  coordinator_->OnTick(30);
  Pump(40);
  EXPECT_EQ(engine_inbox_.size(), 2u);
}

TEST_F(GlobalCoordinatorTest, LazyDiskNeverForcesSpill) {
  Build(AdaptationStrategy::kLazyDisk);
  Report(1, 0, 900, 10, 100);
  Report(1, 1, 850, 10, 1);
  coordinator_->OnTick(10);
  Pump(20);
  EXPECT_TRUE(engine_inbox_.empty());
}

}  // namespace
}  // namespace dcape
