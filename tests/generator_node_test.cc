#include "runtime/generator_node.h"

#include "net/network.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/stream_generator.h"
#include "stream/trace.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::RecordingTransport;

WorkloadConfig SmallWorkload() {
  WorkloadConfig config;
  config.num_streams = 3;
  config.num_partitions = 8;
  config.inter_arrival_ticks = 10;
  config.classes = {PartitionClass{1.0, 320}};
  config.seed = 3;
  return config;
}

class GeneratorNodeTest : public ::testing::Test {
 protected:
  GeneratorNodeTest() : network_(FastConfig()) {
    for (NodeId host : {10, 11, 12}) {
      network_.RegisterNode(host, [this, host](Tick, const Message& m) {
        const auto& batch = std::get<TupleBatch>(m.payload);
        per_host_stream_[{host, batch.stream_id}] +=
            static_cast<int64_t>(batch.tuples.size());
      });
    }
  }
  static Network::Config FastConfig() {
    Network::Config c;
    c.latency_ticks = 1;
    c.bytes_per_tick = 1 << 30;
    return c;
  }

  Network network_;
  std::map<std::pair<NodeId, StreamId>, int64_t> per_host_stream_;
};

TEST_F(GeneratorNodeTest, RoutesStreamsToTheirHosts) {
  GeneratorNode node(
      /*node_id=*/0, std::make_unique<StreamGenerator>(SmallWorkload()),
      /*split_host_of_stream=*/{10, 11, 12}, &network_,
      /*record_trace=*/nullptr);
  for (Tick t = 0; t <= 1000; ++t) node.OnTicks(t, t);
  network_.DeliverWaves(2000);

  // Each host received exactly its stream, ~101 tuples each.
  EXPECT_EQ((per_host_stream_[{10, 0}]), 101);
  EXPECT_EQ((per_host_stream_[{11, 1}]), 101);
  EXPECT_EQ((per_host_stream_[{12, 2}]), 101);
  EXPECT_EQ((per_host_stream_[{10, 1}]), 0);
  EXPECT_EQ((per_host_stream_[{11, 2}]), 0);
  EXPECT_EQ(node.source().total_emitted(), 303);
}

TEST_F(GeneratorNodeTest, SharedHostGetsSeparateBatchesPerStream) {
  GeneratorNode node(0, std::make_unique<StreamGenerator>(SmallWorkload()),
                     {10, 10, 10}, &network_, nullptr);
  node.OnTicks(0, 0);
  network_.DeliverWaves(100);
  EXPECT_EQ((per_host_stream_[{10, 0}]), 1);
  EXPECT_EQ((per_host_stream_[{10, 1}]), 1);
  EXPECT_EQ((per_host_stream_[{10, 2}]), 1);
}

TEST_F(GeneratorNodeTest, GenerateFalseSilencesTheSource) {
  GeneratorNode node(0, std::make_unique<StreamGenerator>(SmallWorkload()),
                     {10, 10, 10}, &network_, nullptr);
  node.OnTicks(0, 0, /*generate=*/false);
  node.OnTicks(1, 100, /*generate=*/false);
  network_.DeliverWaves(200);
  EXPECT_TRUE(per_host_stream_.empty());
  EXPECT_EQ(node.source().total_emitted(), 0);
}

TEST_F(GeneratorNodeTest, RecordsTraceOfEverythingEmitted) {
  std::string trace;
  {
    GeneratorNode node(0, std::make_unique<StreamGenerator>(SmallWorkload()),
                       {10, 10, 10}, &network_, &trace);
    for (Tick t = 0; t <= 500; ++t) node.OnTicks(t, t);
    node.FinishTrace();
  }
  StatusOr<std::vector<TraceRecord>> records = DecodeTrace(trace);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 3u * 51u);
  // Arrival ticks respect the inter-arrival grid.
  for (const TraceRecord& r : *records) {
    EXPECT_EQ(r.arrival % 10, 0);
  }
}

TEST_F(GeneratorNodeTest, TraceFinalizedByDestructorToo) {
  std::string trace;
  {
    GeneratorNode node(0, std::make_unique<StreamGenerator>(SmallWorkload()),
                       {10, 10, 10}, &network_, &trace);
    node.OnTicks(0, 0);
  }
  EXPECT_TRUE(DecodeTrace(trace).ok());
}

/// Concatenates each stream's batches, in send order.
std::map<StreamId, std::vector<Tuple>> TuplesByStream(
    const std::vector<Message>& sent) {
  std::map<StreamId, std::vector<Tuple>> tuples;
  for (const Message& m : sent) {
    const auto& batch = std::get<TupleBatch>(m.payload);
    std::vector<Tuple>& stream = tuples[batch.stream_id];
    stream.insert(stream.end(), batch.tuples.begin(), batch.tuples.end());
  }
  return tuples;
}

TEST_F(GeneratorNodeTest, OneCallOverATickRangeMatchesSingleTickCalls) {
  // Streams 0 and 2 share host 10; the range starts and ends off the
  // 10-tick arrival grid and holds six arrivals per stream.
  constexpr Tick kFirst = 5;
  constexpr Tick kLast = 64;
  const std::vector<NodeId> hosts = {10, 11, 10};
  RecordingTransport range_net;
  RecordingTransport single_net;
  std::string range_trace;
  std::string single_trace;
  {
    GeneratorNode range(0, std::make_unique<StreamGenerator>(SmallWorkload()),
                        hosts, &range_net, &range_trace);
    GeneratorNode single(0,
                         std::make_unique<StreamGenerator>(SmallWorkload()),
                         hosts, &single_net, &single_trace);
    // A shared single-tick prefix, so the range starts mid-stream.
    for (Tick t = 0; t < kFirst; ++t) {
      range.OnTicks(t, t);
      single.OnTicks(t, t);
    }
    range_net.sent.clear();
    single_net.sent.clear();
    range.OnTicks(kFirst, kLast);
    for (Tick t = kFirst; t <= kLast; ++t) single.OnTicks(t, t);
    EXPECT_EQ(range.source().total_emitted(), single.source().total_emitted());
  }

  // Exactly one batch per (host, stream), sent in that order.
  std::vector<std::pair<NodeId, StreamId>> sends;
  for (const Message& m : range_net.sent) {
    sends.emplace_back(m.to, std::get<TupleBatch>(m.payload).stream_id);
  }
  const std::vector<std::pair<NodeId, StreamId>> expected = {
      {10, 0}, {10, 2}, {11, 1}};
  EXPECT_EQ(sends, expected);
  EXPECT_EQ(single_net.sent.size(), 3u * 6u);

  // The same tuples per stream, in the same (tick) order.
  const std::map<StreamId, std::vector<Tuple>> tuples =
      TuplesByStream(range_net.sent);
  EXPECT_EQ(tuples, TuplesByStream(single_net.sent));
  for (const auto& [stream, list] : tuples) {
    EXPECT_EQ(list.size(), 6u) << "stream " << stream;
  }

  // Byte-identical recorded traces (both finalized by the destructors).
  EXPECT_FALSE(range_trace.empty());
  EXPECT_EQ(range_trace, single_trace);
}

}  // namespace
}  // namespace dcape
