#include "runtime/generator_node.h"

#include <map>
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
  DCAPE_CHECK_EQ(split_host_of_stream_.size(),
                 static_cast<size_t>(source_->num_streams()));
  if (record_trace != nullptr) {
    trace_writer_ =
        std::make_unique<TraceWriter>(source_->num_streams(), record_trace);
  }
}

void GeneratorNode::OnTicks(Tick first, Tick last, bool generate) {
  if (!generate) return;
  DCAPE_CHECK_LE(first, last);
  std::map<std::pair<NodeId, StreamId>, TupleBatch> batches;
  for (Tick now = first; now <= last; ++now) {
    for (Tuple& t : source_->EmitForTick(now)) {
      if (trace_writer_ != nullptr) trace_writer_->Append(now, t);
      const NodeId host =
          split_host_of_stream_[static_cast<size_t>(t.stream_id)];
      TupleBatch& batch = batches[{host, t.stream_id}];
      batch.stream_id = t.stream_id;
      batch.tuples.push_back(std::move(t));
    }
  }
  for (auto& [key, batch] : batches) {
    batch.emit_wall_us = emit_wall_us_;
    network_->Send(MakeTupleBatchMessage(node_id_, key.first,
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
