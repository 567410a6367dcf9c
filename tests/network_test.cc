#include "net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/message.h"
#include "tuple/tuple.h"

namespace dcape {
namespace {

Message SmallMessage(NodeId from, NodeId to) {
  StatsReport report;
  report.engine = 0;
  return MakeStatsReportMessage(from, to, report);
}

Message BigTupleMessage(NodeId from, NodeId to, int payload_bytes) {
  TupleBatch batch;
  batch.stream_id = 0;
  Tuple t;
  t.payload.assign(static_cast<size_t>(payload_bytes), 'x');
  batch.tuples.push_back(t);
  return MakeTupleBatchMessage(from, to, std::move(batch));
}

class NetworkTest : public ::testing::Test {
 protected:
  void Register(Network* net, NodeId node) {
    net->RegisterNode(node, [this, node](Tick now, const Message& m) {
      deliveries_.push_back({node, now, m.type});
    });
  }
  struct Delivery {
    NodeId node;
    Tick at;
    MessageType type;
  };
  std::vector<Delivery> deliveries_;
};

TEST_F(NetworkTest, LatencyDelaysDelivery) {
  Network::Config config;
  config.latency_ticks = 5;
  config.bytes_per_tick = 1 << 30;  // effectively free transfer
  Network net(config);
  Register(&net, 1);

  // latency 5 + minimum 1 tick of transfer time for a non-empty message.
  net.Send(SmallMessage(0, 1), /*now=*/10);
  net.DeliverWaves(15);
  EXPECT_TRUE(deliveries_.empty());
  net.DeliverWaves(16);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 16);
}

TEST_F(NetworkTest, BandwidthAddsTransferTime) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 100;
  Network net(config);
  Register(&net, 1);

  // ~1000 bytes payload → ≈10 extra ticks.
  net.Send(BigTupleMessage(0, 1, 1000), /*now=*/0);
  net.DeliverWaves(9);
  EXPECT_TRUE(deliveries_.empty());
  net.DeliverWaves(30);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_GE(deliveries_[0].at, 11);
}

TEST_F(NetworkTest, LinkIsFifoEvenWhenLaterMessageIsSmaller) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 10;  // slow: big message takes long
  Network net(config);
  Register(&net, 1);

  net.Send(BigTupleMessage(0, 1, 2000), /*now=*/0);  // arrives late
  net.Send(SmallMessage(0, 1), /*now=*/1);           // would arrive early
  net.DeliverWaves(10000);
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(deliveries_[0].type, MessageType::kTupleBatch);
  EXPECT_EQ(deliveries_[1].type, MessageType::kStatsReport);
  EXPECT_GE(deliveries_[1].at, deliveries_[0].at);
}

TEST_F(NetworkTest, DistinctLinksDoNotBlockEachOther) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 10;
  Network net(config);
  Register(&net, 1);
  Register(&net, 2);

  net.Send(BigTupleMessage(0, 1, 5000), /*now=*/0);
  net.Send(SmallMessage(0, 2), /*now=*/1);
  // Tick by tick, as the simulator delivers.
  for (Tick now = 0; now <= 10000; ++now) net.DeliverWaves(now);
  ASSERT_EQ(deliveries_.size(), 2u);
  // The small message on the other link overtakes.
  EXPECT_EQ(deliveries_[0].node, 2);
  EXPECT_EQ(deliveries_[1].node, 1);
}

TEST_F(NetworkTest, DeterministicTieBreakBySendOrder) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  Register(&net, 1);
  Register(&net, 2);

  net.Send(SmallMessage(0, 2), 0);
  net.Send(SmallMessage(0, 1), 0);
  net.DeliverUntil(5);
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_EQ(deliveries_[0].node, 2);
  EXPECT_EQ(deliveries_[1].node, 1);
}

TEST_F(NetworkTest, StatsTrackMessagesAndBytes) {
  Network net(Network::Config{});
  Register(&net, 1);
  net.Send(SmallMessage(0, 1), 0);
  net.Send(BigTupleMessage(0, 1, 100), 0);
  EXPECT_EQ(net.stats().messages_sent, 2);
  EXPECT_GT(net.stats().bytes_sent, 100);
  EXPECT_EQ(net.stats().state_transfer_bytes, 0);
}

TEST_F(NetworkTest, StateTransferBytesTrackedSeparately) {
  Network net(Network::Config{});
  Register(&net, 1);
  Message m;
  m.type = MessageType::kStateTransfer;
  m.from = 0;
  m.to = 1;
  StateTransfer transfer;
  transfer.groups.push_back(SerializedGroup{0, std::string(1000, 'z')});
  m.payload = std::move(transfer);
  net.Send(std::move(m), 0);
  EXPECT_GT(net.stats().state_transfer_bytes, 1000);
}

TEST_F(NetworkTest, IdleOnceEveryMessageIsDelivered) {
  Network::Config config;
  config.latency_ticks = 3;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  Register(&net, 1);
  EXPECT_TRUE(net.idle());
  net.Send(SmallMessage(0, 1), 4);
  EXPECT_FALSE(net.idle());
  net.DeliverWaves(7);
  EXPECT_TRUE(deliveries_.empty());
  EXPECT_FALSE(net.idle());
  net.DeliverWaves(8);  // latency 3 + 1 transfer tick
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 8);
  EXPECT_TRUE(net.idle());
}

TEST_F(NetworkTest, HandlersCanSendDuringDelivery) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  int second_hop_at = -1;
  net.RegisterNode(1, [&](Tick now, const Message&) {
    net.Send(SmallMessage(1, 2), now);
  });
  net.RegisterNode(2, [&](Tick now, const Message&) {
    second_hop_at = static_cast<int>(now);
  });
  net.Send(SmallMessage(0, 1), 0);
  net.DeliverWaves(10);
  EXPECT_EQ(second_hop_at, 4);  // two hops of latency 1 + transfer 1
}

// Nodes 1 and 2 each receive one message due at tick 2, node 2's sent
// first; each handler forwards to node 3 at once. Returns the senders in
// the order node 3 hears from them.
std::vector<NodeId> ForwardOrderAtNode3(bool waves) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  for (NodeId relay : {1, 2}) {
    net.RegisterNode(relay, [&net, relay](Tick now, const Message&) {
      net.Send(SmallMessage(relay, 3), now);
    });
  }
  std::vector<NodeId> heard;
  net.RegisterNode(3, [&heard](Tick, const Message& m) {
    heard.push_back(m.from);
  });
  net.Send(SmallMessage(0, 2), 0);
  net.Send(SmallMessage(0, 1), 0);
  if (waves) {
    net.DeliverWaves(10);
  } else {
    net.DeliverUntil(10);
  }
  return heard;
}

TEST_F(NetworkTest, WavesDeliverInNodeOrderAndEnqueueSendsInThatOrder) {
  // DeliverWaves runs node 1's inbox before node 2's within the wave, so
  // node 1's forward is sent, and delivered, first.
  EXPECT_EQ(ForwardOrderAtNode3(/*waves=*/true), (std::vector<NodeId>{1, 2}));
  // DeliverUntil's one global (arrival, sequence) order runs node 2's
  // earlier-sent message first instead.
  EXPECT_EQ(ForwardOrderAtNode3(/*waves=*/false),
            (std::vector<NodeId>{2, 1}));
}

TEST(MessageTest, TypeNamesAreStable) {
  EXPECT_STREQ(MessageTypeName(MessageType::kTupleBatch), "TupleBatch");
  EXPECT_STREQ(MessageTypeName(MessageType::kStateTransfer), "StateTransfer");
  EXPECT_STREQ(MessageTypeName(MessageType::kDrainMarker), "DrainMarker");
}

TEST(MessageTest, ByteSizeGrowsWithPayload) {
  Message small = BigTupleMessage(0, 1, 10);
  Message big = BigTupleMessage(0, 1, 1000);
  EXPECT_GT(big.ByteSize(), small.ByteSize());
  EXPECT_GE(big.ByteSize() - small.ByteSize(), 990);
}

}  // namespace
}  // namespace dcape
