#include "runtime/generator_node.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "net/message.h"

namespace dcape {

GeneratorNode::GeneratorNode(NodeId node_id,
                             std::unique_ptr<InputSource> source,
                             std::vector<NodeId> split_host_of_stream,
                             Transport* network, std::string* record_trace)
    : node_id_(node_id),
      source_(std::move(source)),
      split_host_of_stream_(std::move(split_host_of_stream)),
      network_(network) {
  DCAPE_CHECK(source_ != nullptr);
  DCAPE_CHECK(network_ != nullptr);
  const int num_streams = source_->num_streams();
  DCAPE_CHECK_EQ(split_host_of_stream_.size(),
                 static_cast<size_t>(num_streams));
  for (StreamId s = 0; s < num_streams; ++s) send_order_.push_back(s);
  std::stable_sort(send_order_.begin(), send_order_.end(),
                   [this](StreamId a, StreamId b) {
                     return split_host_of_stream_[static_cast<size_t>(a)] <
                            split_host_of_stream_[static_cast<size_t>(b)];
                   });
  pending_.resize(static_cast<size_t>(num_streams));
  if (record_trace != nullptr) {
    trace_writer_ = std::make_unique<TraceWriter>(num_streams, record_trace);
  }
}

void GeneratorNode::OnTicks(Tick first, Tick last, bool generate) {
  if (!generate) return;
  DCAPE_CHECK_LE(first, last);
  for (Tick now = first; now <= last; ++now) {
    for (Tuple& t : source_->EmitForTick(now)) {
      if (trace_writer_ != nullptr) trace_writer_->Append(now, t);
      pending_[static_cast<size_t>(t.stream_id)].push_back(std::move(t));
    }
  }
  for (StreamId s : send_order_) {
    std::vector<Tuple>& tuples = pending_[static_cast<size_t>(s)];
    if (tuples.empty()) continue;
    TupleBatch batch;
    batch.stream_id = s;
    batch.emit_wall_us = emit_wall_us_;
    batch.tuples = std::move(tuples);
    tuples.clear();
    network_->Send(
        MakeTupleBatchMessage(
            node_id_, split_host_of_stream_[static_cast<size_t>(s)],
            std::move(batch)),
        last);
  }
}

void GeneratorNode::FinishTrace() {
  if (trace_writer_ != nullptr) {
    trace_writer_->Finish();
    trace_writer_.reset();
  }
}

}  // namespace dcape
