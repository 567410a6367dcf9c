#include "net/network.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "net/message.h"
#include "tuple/tuple.h"

namespace dcape {

// Set by the allocation test; read by the operator new at the end of
// this file.
bool g_count_allocations = false;
int64_t g_allocations = 0;

namespace {

/// A StatsReport message whose `total_outputs` carries `tag`.
Message SmallMessage(NodeId from, NodeId to, int64_t tag = 0) {
  StatsReport report;
  report.engine = 0;
  report.total_outputs = tag;
  return MakeStatsReportMessage(from, to, report);
}

int64_t TagOf(const Message& m) {
  return std::get<StatsReport>(m.payload).total_outputs;
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

TEST_F(NetworkTest, DuplicateArrivesOneTickLaterAndHoldsItsLinkBehindIt) {
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  struct Heard {
    NodeId node;
    Tick at;
    int64_t tag;
  };
  std::vector<Heard> heard;
  // Node 1 answers its first delivery with a send to node 2, which
  // parks in the slot the delivered original has just freed.
  net.RegisterNode(1, [&](Tick now, const Message& m) {
    if (heard.empty()) net.Send(SmallMessage(1, 2, 99), now);
    heard.push_back({1, now, TagOf(m)});
  });
  net.RegisterNode(2, [&](Tick now, const Message& m) {
    heard.push_back({2, now, TagOf(m)});
  });
  bool first = true;
  net.SetFaultHooks(nullptr, [&first](const Message&) {
    const bool duplicate = first;
    first = false;
    return duplicate;
  });

  net.Send(SmallMessage(0, 1, 7), 0);  // due at 2; its copy at 3
  net.Send(SmallMessage(0, 1, 8), 0);  // due at 2, clamped behind the copy
  EXPECT_EQ(net.stats().messages_sent, 3);
  for (Tick now = 0; now <= 10; ++now) net.DeliverWaves(now);

  ASSERT_EQ(heard.size(), 4u);
  EXPECT_EQ(heard[0].node, 1);
  EXPECT_EQ(heard[0].at, 2);
  EXPECT_EQ(heard[0].tag, 7);
  EXPECT_EQ(heard[1].node, 1);  // the copy, intact in its own slot
  EXPECT_EQ(heard[1].at, 3);
  EXPECT_EQ(heard[1].tag, 7);
  EXPECT_EQ(heard[2].node, 1);
  EXPECT_EQ(heard[2].at, 3);
  EXPECT_EQ(heard[2].tag, 8);
  EXPECT_EQ(heard[3].node, 2);
  EXPECT_EQ(heard[3].at, 4);
  EXPECT_EQ(heard[3].tag, 99);
  EXPECT_TRUE(net.idle());
}

TEST_F(NetworkTest, LargeWaveDeliversEachDestinationInArrivalSequenceOrder) {
  // 24 messages, more than std::sort's insertion-sort cutoff of 16, from
  // three sources to four interleaved destinations, sent at shuffled
  // ticks so arrival order differs from send order. One DeliverWaves
  // call takes them all as one wave (no handler sends).
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  struct Heard {
    NodeId node;
    Tick at;
    int64_t tag;  // the send index, so also the sequence order
  };
  std::vector<Heard> heard;
  for (NodeId node : {1, 2, 3, 4}) {
    net.RegisterNode(node, [&heard, node](Tick now, const Message& m) {
      heard.push_back({node, now, TagOf(m)});
    });
  }
  constexpr int kMessages = 24;
  for (int i = 0; i < kMessages; ++i) {
    const NodeId from = 5 + i % 3;
    const NodeId to = 1 + (i * 3) % 4;
    net.Send(SmallMessage(from, to, i), /*now=*/(i * 7) % 5);
  }
  net.DeliverWaves(100);

  ASSERT_EQ(heard.size(), static_cast<size_t>(kMessages));
  bool arrival_differs_from_send_order = false;
  for (size_t i = 1; i < heard.size(); ++i) {
    const Heard& a = heard[i - 1];
    const Heard& b = heard[i];
    ASSERT_LE(a.node, b.node) << "destinations out of order at " << i;
    if (a.node != b.node) continue;
    EXPECT_TRUE(a.at < b.at || (a.at == b.at && a.tag < b.tag))
        << "node " << a.node << ": (" << a.at << ", " << a.tag
        << ") before (" << b.at << ", " << b.tag << ")";
    if (a.tag > b.tag) arrival_differs_from_send_order = true;
  }
  EXPECT_TRUE(arrival_differs_from_send_order);
}

TEST(NetworkAllocationTest, SteadyStateWavesAllocateNothing) {
  // Two sources send to three destinations every tick, and each tick's
  // messages are delivered at once. After one warm-up tick the slots,
  // heap, wave and link table are all sized, so nothing allocates.
  Network::Config config;
  config.latency_ticks = 1;
  config.bytes_per_tick = 1 << 30;
  Network net(config);
  std::array<int64_t, 3> delivered{};
  for (NodeId to : {2, 3, 4}) {
    net.RegisterNode(to, [&delivered, to](Tick, const Message&) {
      ++delivered[static_cast<size_t>(to - 2)];
    });
  }
  auto step = [&net](Tick now) {
    for (NodeId from : {0, 1}) {
      for (NodeId to : {2, 3, 4}) net.Send(SmallMessage(from, to), now);
    }
    net.DeliverWaves(now + 2);
  };
  step(0);

  const int64_t before = g_allocations;
  g_count_allocations = true;
  for (Tick now = 1; now <= 100; ++now) step(now);
  g_count_allocations = false;
  EXPECT_EQ(g_allocations - before, 0)
      << "steady-state sends and waves allocated";
  EXPECT_EQ(delivered, (std::array<int64_t, 3>{202, 202, 202}));
  EXPECT_TRUE(net.idle());
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

// Counts heap allocations while g_count_allocations is set (the
// allocation test above); otherwise the default behaviour. GCC reads
// free() on memory from operator new as a mismatch, but these
// replacements pair malloc with free on purpose.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t size) {
  if (dcape::g_count_allocations) ++dcape::g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
