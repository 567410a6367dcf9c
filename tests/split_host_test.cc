#include "runtime/split_host.h"

#include <gtest/gtest.h>

#include <ostream>
#include <utility>
#include <vector>

#include "runtime/cluster.h"
#include "stream/stream_generator.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::AllResults;
using testing::RecordingTransport;
using testing::SmallClusterConfig;
using testing::ToMultiset;

Tuple TupleFor(StreamId stream, int64_t seq, PartitionId partition) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = static_cast<JoinKey>(partition) * StreamGenerator::kKeyStride;
  t.payload = "abcdef";
  return t;
}

class SplitHostTest : public ::testing::Test {
 protected:
  SplitHostTest() : network_(FastConfig()) {
    network_.RegisterNode(0, [this](Tick, const Message& m) {
      if (m.type == MessageType::kTupleBatch) {
        engine0_tuples_ +=
            static_cast<int64_t>(std::get<TupleBatch>(m.payload).tuples.size());
      } else {
        engine0_other_.push_back(m.type);
      }
    });
    network_.RegisterNode(1, [this](Tick, const Message& m) {
      if (m.type == MessageType::kTupleBatch) {
        engine1_tuples_ +=
            static_cast<int64_t>(std::get<TupleBatch>(m.payload).tuples.size());
      }
    });
    network_.RegisterNode(10, [this](Tick, const Message& m) {
      coordinator_inbox_.push_back(m.type);
    });
  }

  static Network::Config FastConfig() {
    Network::Config c;
    c.latency_ticks = 1;
    c.bytes_per_tick = 1 << 30;
    return c;
  }

  SplitHostConfig BaseConfig() {
    SplitHostConfig config;
    config.node_id = 20;
    config.coordinator_node = 10;
    config.streams = {0, 1};
    return config;
  }

  void Feed(SplitHost* host, Tick now, StreamId stream,
            std::vector<Tuple> tuples) {
    TupleBatch batch;
    batch.stream_id = stream;
    batch.tuples = std::move(tuples);
    Message m = MakeTupleBatchMessage(30, 20, std::move(batch));
    host->OnMessage(now, m);
    network_.DeliverWaves(now + 5);
  }

  Network network_;
  int64_t engine0_tuples_ = 0;
  int64_t engine1_tuples_ = 0;
  std::vector<MessageType> engine0_other_;
  std::vector<MessageType> coordinator_inbox_;
};

TEST_F(SplitHostTest, RoutesIncomingBatchesByPartition) {
  SplitHost host(BaseConfig(), /*placement=*/{0, 0, 1, 1}, &network_);
  Feed(&host, 0, 0, {TupleFor(0, 1, 0), TupleFor(0, 2, 3)});
  EXPECT_EQ(engine0_tuples_, 1);
  EXPECT_EQ(engine1_tuples_, 1);
}

TEST_F(SplitHostTest, HostsOnlyConfiguredStreams) {
  SplitHostConfig config = BaseConfig();
  config.streams = {1};
  SplitHost host(config, {0, 0}, &network_);
  EXPECT_FALSE(host.HostsStream(0));
  EXPECT_TRUE(host.HostsStream(1));
}

TEST_F(SplitHostTest, PauseBuffersAndEmitsMarkerAndAck) {
  SplitHost host(BaseConfig(), {0, 0, 1, 1}, &network_);

  PausePartitions pause;
  pause.relocation_id = 5;
  pause.partitions = {0};
  pause.sender_node = 0;
  Message m;
  m.type = MessageType::kPausePartitions;
  m.from = 10;
  m.to = 20;
  m.payload = pause;
  host.OnMessage(0, m);
  network_.DeliverWaves(10);

  // Drain marker went to the old owner, ack to the coordinator.
  ASSERT_EQ(engine0_other_.size(), 1u);
  EXPECT_EQ(engine0_other_[0], MessageType::kDrainMarker);
  ASSERT_EQ(coordinator_inbox_.size(), 1u);
  EXPECT_EQ(coordinator_inbox_[0], MessageType::kPauseAck);

  // Tuples for the paused partition buffer; others flow.
  Feed(&host, 11, 0, {TupleFor(0, 1, 0), TupleFor(0, 2, 1)});
  EXPECT_EQ(host.total_buffered(), 1);
  EXPECT_EQ(engine0_tuples_, 1);

  // Routing update flushes the buffer to the new owner and acks.
  UpdateRouting update;
  update.relocation_id = 5;
  update.partitions = {0};
  update.new_owner = 1;
  Message um;
  um.type = MessageType::kUpdateRouting;
  um.from = 10;
  um.to = 20;
  um.payload = update;
  host.OnMessage(20, um);
  network_.DeliverWaves(30);
  EXPECT_EQ(host.total_buffered(), 0);
  EXPECT_EQ(engine1_tuples_, 1);
  ASSERT_EQ(coordinator_inbox_.size(), 2u);
  EXPECT_EQ(coordinator_inbox_[1], MessageType::kRoutingUpdated);
}

TEST_F(SplitHostTest, SelectionAppliesOnlyToFreshTuples) {
  SplitHostConfig config = BaseConfig();
  SelectPredicate band;
  band.min_value = 100;
  config.select_per_stream = {band, band};
  SplitHost host(config, {0, 0}, &network_);

  Tuple pass = TupleFor(0, 1, 0);
  pass.value = 150;
  Tuple drop = TupleFor(0, 2, 0);
  drop.value = 50;
  Feed(&host, 0, 0, {pass, drop});
  EXPECT_EQ(engine0_tuples_, 1);
  EXPECT_EQ(host.select(0)->seen(), 2);
  EXPECT_EQ(host.select(0)->passed(), 1);
}

TupleBatch BatchOf(StreamId stream, std::vector<Tuple> tuples) {
  TupleBatch batch;
  batch.stream_id = stream;
  batch.tuples = std::move(tuples);
  return batch;
}

/// Destination, stream and tuple seqs of one sent tuple batch.
struct Shipped {
  NodeId to;
  StreamId stream;
  std::vector<int64_t> seqs;
  bool operator==(const Shipped&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Shipped& s) {
  os << "{to " << s.to << ", stream " << s.stream << ", seqs";
  for (int64_t seq : s.seqs) os << " " << seq;
  return os << "}";
}

/// The tuple batches among `sent`, in send order.
std::vector<Shipped> ShippedBatches(const std::vector<Message>& sent) {
  std::vector<Shipped> shipped;
  for (const Message& m : sent) {
    if (m.type != MessageType::kTupleBatch) continue;
    const auto& batch = std::get<TupleBatch>(m.payload);
    Shipped s{m.to, batch.stream_id, {}};
    for (const Tuple& t : batch.tuples) s.seqs.push_back(t.seq);
    shipped.push_back(std::move(s));
  }
  return shipped;
}

TEST(SplitHostRoutingTest, BatchesShipPerEngineAndStreamInThatOrder) {
  RecordingTransport transport;
  SplitHostConfig config;
  config.node_id = 20;
  config.coordinator_node = 10;
  config.streams = {2, 0, 1};
  SplitHost host(config, /*placement=*/{0, 0, 1, 1}, &transport);

  // Relocation 5 pauses partitions 0 and 3 (owned by engines 0 and 1).
  PausePartitions pause;
  pause.relocation_id = 5;
  pause.partitions = {0, 3};
  pause.sender_node = 0;
  Message pm;
  pm.type = MessageType::kPausePartitions;
  pm.from = 10;
  pm.to = 20;
  pm.payload = pause;
  host.OnMessage(0, pm);
  transport.sent.clear();

  // A fresh batch that mixes engines ships one batch per engine, in
  // engine order, each in arrival order; paused partitions buffer.
  host.OnTupleBatch(1, BatchOf(1, {TupleFor(1, 1, 2), TupleFor(1, 2, 3),
                                   TupleFor(1, 3, 1), TupleFor(1, 4, 0),
                                   TupleFor(1, 5, 2)}));
  // One going wholly to one engine ships as it came.
  host.OnTupleBatch(2, BatchOf(0, {TupleFor(0, 6, 1), TupleFor(0, 7, 1)}));
  host.OnTupleBatch(3, BatchOf(2, {TupleFor(2, 8, 0), TupleFor(2, 9, 3)}));
  host.OnTupleBatch(4, BatchOf(0, {TupleFor(0, 10, 3), TupleFor(0, 11, 0)}));
  EXPECT_EQ(ShippedBatches(transport.sent),
            (std::vector<Shipped>{{0, 1, {3}}, {1, 1, {1, 5}}, {0, 0, {6, 7}}}));
  EXPECT_EQ(host.total_buffered(), 6);
  transport.sent.clear();

  // The release mixes all three streams: one batch per (engine, stream),
  // ascending, each holding its stream's buffered tuples in arrival
  // order, then the ack.
  UpdateRouting update;
  update.relocation_id = 5;
  update.partitions = {0, 3};
  update.new_owner = 1;
  Message um;
  um.type = MessageType::kUpdateRouting;
  um.from = 10;
  um.to = 20;
  um.payload = update;
  host.OnMessage(5, um);
  EXPECT_EQ(ShippedBatches(transport.sent),
            (std::vector<Shipped>{
                {1, 0, {10, 11}}, {1, 1, {2, 4}}, {1, 2, {8, 9}}}));
  ASSERT_FALSE(transport.sent.empty());
  EXPECT_EQ(transport.sent.back().type, MessageType::kRoutingUpdated);
  EXPECT_EQ(host.total_buffered(), 0);

  // After the release, a batch over both old owners' partitions mixes
  // engines again, ascending.
  transport.sent.clear();
  host.OnTupleBatch(6, BatchOf(2, {TupleFor(2, 12, 3), TupleFor(2, 13, 1),
                                   TupleFor(2, 14, 0)}));
  EXPECT_EQ(ShippedBatches(transport.sent),
            (std::vector<Shipped>{{0, 2, {13}}, {1, 2, {12, 14}}}));
}

/// End-to-end: the full distributed pipeline with one split host per
/// stream remains exact under lazy-disk (multi-marker drain logic).
TEST(MultiSplitHostTest, ThreeHostsRemainExactUnderLazyDisk) {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(40);
  std::vector<JoinResult> reference;
  {
    ClusterConfig ref = config;
    ref.num_split_hosts = 3;
    ref.strategy = AdaptationStrategy::kNoAdaptation;
    Cluster cluster(ref);
    reference = AllResults(cluster.Run());
  }
  ASSERT_FALSE(reference.empty());

  config.num_split_hosts = 3;
  config.strategy = AdaptationStrategy::kLazyDisk;
  config.placement_fractions = {0.75, 0.25};
  Cluster cluster(config);
  ASSERT_EQ(cluster.num_split_hosts(), 3);
  RunResult result = cluster.Run();
  EXPECT_GT(result.coordinator.relocations_completed, 0);
  EXPECT_EQ(ToMultiset(AllResults(result)), ToMultiset(reference));
}

TEST(MultiSplitHostTest, SingleAndMultiHostProduceSameResultSet) {
  // The input is generated identically; only the split placement differs.
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(30);
  config.strategy = AdaptationStrategy::kNoAdaptation;

  ClusterConfig single = config;
  single.num_split_hosts = 1;
  ClusterConfig multi = config;
  multi.num_split_hosts = 3;

  Cluster single_cluster(single);
  Cluster multi_cluster(multi);
  RunResult single_result = single_cluster.Run();
  RunResult multi_result = multi_cluster.Run();
  EXPECT_EQ(ToMultiset(AllResults(single_result)),
            ToMultiset(AllResults(multi_result)));
}

}  // namespace
}  // namespace dcape
