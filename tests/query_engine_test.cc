#include "engine/query_engine.h"

#include "net/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "storage/disk_backend.h"
#include "stream/stream_generator.h"

namespace dcape {
namespace {

constexpr NodeId kEngineNode = 0;
constexpr NodeId kPeerEngineNode = 1;
constexpr NodeId kCoordinatorNode = 10;
constexpr NodeId kSinkNode = 11;
constexpr NodeId kSplitHostNode = 12;

Tuple TupleFor(StreamId stream, int64_t seq, PartitionId partition,
               int64_t key_index = 0) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key =
      static_cast<JoinKey>(partition) * StreamGenerator::kKeyStride + key_index;
  t.payload = "0123456789";
  return t;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : network_(FastConfig()) {
    network_.RegisterNode(kCoordinatorNode, [this](Tick, const Message& m) {
      coordinator_inbox_.push_back(m);
    });
    network_.RegisterNode(kSinkNode, [this](Tick, const Message& m) {
      const auto& batch = std::get<ResultBatch>(m.payload);
      results_.insert(results_.end(), batch.results.begin(),
                      batch.results.end());
    });
    network_.RegisterNode(kPeerEngineNode, [this](Tick, const Message& m) {
      peer_inbox_.push_back(m);
    });
  }

  static Network::Config FastConfig() {
    Network::Config config;
    config.latency_ticks = 1;
    config.bytes_per_tick = 1 << 30;
    return config;
  }

  void Build(AdaptationStrategy strategy,
             int64_t threshold = 1 * kMiB) {
    EngineConfig config;
    config.engine_id = 0;
    config.node_id = kEngineNode;
    config.coordinator_node = kCoordinatorNode;
    config.sink_node = kSinkNode;
    config.num_streams = 2;
    config.num_split_hosts = 1;
    config.strategy = strategy;
    config.spill.memory_threshold_bytes = threshold;
    config.spill.spill_fraction = 0.5;
    config.spill.ss_timer_period = 10;
    config.stats_period = 100;
    engine_ = std::make_unique<QueryEngine>(
        config, &network_, SpillStore::Config{},
        std::make_unique<MemoryDiskBackend>());
    network_.RegisterNode(kEngineNode, [this](Tick now, const Message& m) {
      engine_->OnMessage(now, m);
    });
  }

  void Deliver(Tick now, Message m) {
    engine_->OnMessage(now, m);
    network_.DeliverWaves(now + 5);
  }

  void SendTuples(Tick now, const std::vector<Tuple>& tuples) {
    TupleBatch batch;
    batch.stream_id = tuples.front().stream_id;
    batch.tuples = tuples;
    Message m =
        MakeTupleBatchMessage(kSplitHostNode, kEngineNode, std::move(batch));
    Deliver(now, std::move(m));
  }

  Network network_;
  std::unique_ptr<QueryEngine> engine_;
  std::vector<Message> coordinator_inbox_;
  std::vector<Message> peer_inbox_;
  std::vector<JoinResult> results_;
};

TEST_F(QueryEngineTest, ProcessesTuplesAndShipsResults) {
  Build(AdaptationStrategy::kNoAdaptation);
  SendTuples(0, {TupleFor(0, 1, 3)});
  SendTuples(1, {TupleFor(1, 2, 3)});
  network_.DeliverWaves(10);
  ASSERT_EQ(results_.size(), 1u);
  EXPECT_EQ(results_[0].partition, 3);
  EXPECT_EQ(engine_->counters().tuples_processed, 2);
  EXPECT_EQ(engine_->counters().results_produced, 1);
}

TEST_F(QueryEngineTest, StatsReportedPeriodically) {
  Build(AdaptationStrategy::kNoAdaptation);
  SendTuples(0, {TupleFor(0, 1, 3)});
  engine_->OnTick(100);
  network_.DeliverWaves(110);
  ASSERT_EQ(coordinator_inbox_.size(), 1u);
  const auto& report = std::get<StatsReport>(coordinator_inbox_[0].payload);
  EXPECT_EQ(report.engine, 0);
  EXPECT_GT(report.state_bytes, 0);
  EXPECT_EQ(report.num_groups, 1);
}

TEST_F(QueryEngineTest, SpillsWhenThresholdExceeded) {
  Build(AdaptationStrategy::kSpillOnly, /*threshold=*/200);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 20; ++i) {
    tuples.push_back(TupleFor(0, i, i % 5));
  }
  SendTuples(0, tuples);
  const int64_t bytes_before = engine_->state_bytes();
  ASSERT_GT(bytes_before, 200);
  engine_->OnTick(10);
  EXPECT_EQ(engine_->counters().spill_events, 1);
  EXPECT_GT(engine_->counters().spilled_bytes, 0);
  EXPECT_GT(engine_->spill_store().segment_count(), 0);
  // At least the configured 50% of the state left memory.
  EXPECT_LE(engine_->state_bytes(), bytes_before / 2);
}

TEST_F(QueryEngineTest, NoAdaptationNeverSpills) {
  Build(AdaptationStrategy::kNoAdaptation, /*threshold=*/100);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 20; ++i) tuples.push_back(TupleFor(0, i, i % 5));
  SendTuples(0, tuples);
  engine_->OnTick(10);
  engine_->OnTick(20);
  EXPECT_EQ(engine_->counters().spill_events, 0);
}

TEST_F(QueryEngineTest, SpillMakesEngineBusyAndQueuesInput) {
  Build(AdaptationStrategy::kSpillOnly, /*threshold=*/200);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 50; ++i) tuples.push_back(TupleFor(0, i, i % 5));
  SendTuples(0, tuples);
  engine_->OnTick(10);  // spill happens; busy for a few ticks
  ASSERT_EQ(engine_->counters().spill_events, 1);
  EXPECT_FALSE(engine_->Idle(10));

  // A batch arriving while busy is queued, not processed.
  const int64_t processed_before = engine_->counters().tuples_processed;
  SendTuples(11, {TupleFor(1, 100, 0)});
  EXPECT_EQ(engine_->counters().tuples_processed, processed_before);
  // Once the I/O completes, the queue drains (further ticks may spill
  // again while memory remains above threshold — keep ticking).
  Tick t = 10000;
  while (!engine_->Idle(t) && t < 200000) {
    engine_->OnTick(t);
    t += 100;
  }
  EXPECT_EQ(engine_->counters().tuples_processed, processed_before + 1);
  EXPECT_TRUE(engine_->Idle(t));
}

TEST_F(QueryEngineTest, ForceSpillRepliesWithSpilledBytes) {
  Build(AdaptationStrategy::kActiveDisk, /*threshold=*/1 * kMiB);
  std::vector<Tuple> tuples;
  for (int i = 0; i < 20; ++i) tuples.push_back(TupleFor(0, i, i % 5));
  SendTuples(0, tuples);

  Message m;
  m.type = MessageType::kForceSpill;
  m.from = kCoordinatorNode;
  m.to = kEngineNode;
  m.payload = ForceSpill{/*amount_bytes=*/300};
  Deliver(5, std::move(m));
  network_.DeliverWaves(20);

  ASSERT_EQ(coordinator_inbox_.size(), 1u);
  const auto& done = std::get<SpillComplete>(coordinator_inbox_[0].payload);
  EXPECT_GE(done.bytes_spilled, 300);
  EXPECT_EQ(engine_->counters().forced_spill_events, 1);
  EXPECT_EQ(engine_->counters().spill_events, 0);
}

TEST_F(QueryEngineTest, RelocationSenderFullFlow) {
  Build(AdaptationStrategy::kLazyDisk);
  // Partition 3 has a match (productive); partition 4 does not.
  SendTuples(0, {TupleFor(0, 1, 3), TupleFor(0, 2, 4)});
  SendTuples(1, {TupleFor(1, 3, 3)});

  // Step 1: coordinator asks for partitions to move.
  Message cptv;
  cptv.type = MessageType::kComputePartitionsToMove;
  cptv.from = kCoordinatorNode;
  cptv.to = kEngineNode;
  cptv.payload = ComputePartitionsToMove{/*relocation_id=*/7,
                                         /*amount_bytes=*/1, /*receiver=*/1};
  Deliver(10, std::move(cptv));
  network_.DeliverWaves(15);

  // Step 2: the reply names the most productive partition (3), locked.
  ASSERT_EQ(coordinator_inbox_.size(), 1u);
  const auto& reply =
      std::get<PartitionsToMove>(coordinator_inbox_[0].payload);
  EXPECT_EQ(reply.relocation_id, 7);
  ASSERT_EQ(reply.partitions.size(), 1u);
  EXPECT_EQ(reply.partitions[0], 3);
  EXPECT_TRUE(engine_->mjoin().state().IsLocked(3));
  EXPECT_EQ(engine_->mode(), EngineMode::kStateRelocation);

  // While locked+pending, tuples for partition 3 still get processed.
  SendTuples(20, {TupleFor(1, 4, 3, 0)});
  EXPECT_EQ(engine_->counters().tuples_processed, 4);

  // Steps 4b/5: drain marker + transfer authorization (either order).
  Message transfer;
  transfer.type = MessageType::kTransferStates;
  transfer.from = kCoordinatorNode;
  transfer.to = kEngineNode;
  transfer.payload = TransferStates{7, /*receiver=*/1, {3}};
  Deliver(30, std::move(transfer));
  EXPECT_TRUE(peer_inbox_.empty()) << "must wait for the drain marker";

  Message marker;
  marker.type = MessageType::kDrainMarker;
  marker.from = kSplitHostNode;
  marker.to = kEngineNode;
  marker.payload = DrainMarker{7, kSplitHostNode};
  Deliver(31, std::move(marker));
  network_.DeliverWaves(40);

  // Step 6: the serialized state went to the receiver.
  ASSERT_EQ(peer_inbox_.size(), 1u);
  ASSERT_EQ(peer_inbox_[0].type, MessageType::kStateTransfer);
  const auto& shipped = std::get<StateTransfer>(peer_inbox_[0].payload);
  ASSERT_EQ(shipped.groups.size(), 1u);
  EXPECT_EQ(shipped.groups[0].partition, 3);
  EXPECT_EQ(engine_->mjoin().state().FindGroup(3), nullptr);
  EXPECT_EQ(engine_->mode(), EngineMode::kNormal);
  EXPECT_EQ(engine_->counters().relocations_out, 1);
}

TEST_F(QueryEngineTest, ReceiverInstallsStateAndAcks) {
  Build(AdaptationStrategy::kLazyDisk);
  // Serialize a group worth of state from a scratch manager.
  StateManager scratch(2);
  scratch.ProcessTuple(5, TupleFor(0, 1, 5), nullptr);
  scratch.ProcessTuple(5, TupleFor(1, 2, 5), nullptr);
  auto extracted = scratch.ExtractGroups({5});
  ASSERT_EQ(extracted.size(), 1u);

  Message m;
  m.type = MessageType::kStateTransfer;
  m.from = kPeerEngineNode;
  m.to = kEngineNode;
  StateTransfer transfer;
  transfer.relocation_id = 9;
  transfer.sender = 1;
  transfer.groups.push_back(SerializedGroup{5, extracted[0].blob});
  m.payload = std::move(transfer);
  Deliver(50, std::move(m));
  network_.DeliverWaves(60);

  EXPECT_NE(engine_->mjoin().state().FindGroup(5), nullptr);
  EXPECT_EQ(engine_->counters().relocations_in, 1);
  ASSERT_EQ(coordinator_inbox_.size(), 1u);
  const auto& ack = std::get<StatesInstalled>(coordinator_inbox_[0].payload);
  EXPECT_EQ(ack.relocation_id, 9);
  EXPECT_GT(ack.bytes, 0);

  // Installed state joins with new input.
  SendTuples(70, {TupleFor(0, 10, 5)});
  network_.DeliverWaves(80);
  EXPECT_FALSE(results_.empty());
}

}  // namespace
}  // namespace dcape
