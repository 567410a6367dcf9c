#include "runtime/split_host.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "sim/invariants.h"

namespace dcape {

SplitHost::SplitHost(const SplitHostConfig& config,
                     std::vector<EngineId> placement, Transport* network)
    : config_(config), network_(network) {
  DCAPE_CHECK(network_ != nullptr);
  DCAPE_CHECK(!config_.streams.empty());
  std::vector<StreamId> hosted = config_.streams;
  std::sort(hosted.begin(), hosted.end());
  hosted.erase(std::unique(hosted.begin(), hosted.end()), hosted.end());
  DCAPE_CHECK_GE(hosted.front(), 0);
  split_of_stream_.resize(static_cast<size_t>(hosted.back()) + 1, nullptr);
  for (StreamId s : hosted) {
    splits_.push_back(std::make_unique<Split>(s, placement));
    split_of_stream_[static_cast<size_t>(s)] = splits_.back().get();
  }
  if (!config_.select_per_stream.empty()) {
    DCAPE_CHECK_EQ(config_.select_per_stream.size(), config_.streams.size());
    for (size_t i = 0; i < config_.streams.size(); ++i) {
      selects_.emplace(config_.streams[i], std::make_unique<SelectOp>(
                                               config_.select_per_stream[i]));
    }
  }
  if (config_.project_payload_to.has_value()) {
    DCAPE_CHECK_GE(*config_.project_payload_to, 0);
    project_ = std::make_unique<ProjectOp>(
        static_cast<size_t>(*config_.project_payload_to));
  }
}

Split& SplitHost::split(StreamId stream) {
  DCAPE_CHECK(HostsStream(stream));
  return *split_of_stream_[static_cast<size_t>(stream)];
}

const Split& SplitHost::split(StreamId stream) const {
  DCAPE_CHECK(HostsStream(stream));
  return *split_of_stream_[static_cast<size_t>(stream)];
}

void SplitHost::SendBatch(Tick now, EngineId engine, StreamId stream,
                          std::vector<Tuple> tuples, int64_t emit_wall_us) {
  TupleBatch batch;
  batch.stream_id = stream;
  batch.tuples = std::move(tuples);
  batch.emit_wall_us = emit_wall_us;
  network_->Send(MakeTupleBatchMessage(config_.node_id,
                                       static_cast<NodeId>(engine),
                                       std::move(batch)),
                 now);
}

void SplitHost::RouteAndSend(Tick now, std::vector<Tuple> tuples,
                             int64_t emit_wall_us) {
  if (tuples.empty()) return;
  // Route every tuple first; a paused partition's split buffers the tuple
  // and names no engine. When all of them go to one engine on one stream,
  // the vector ships whole as the call's one batch.
  const StreamId first_stream = tuples.front().stream_id;
  bool one_batch = true;
  routes_.clear();
  for (const Tuple& tuple : tuples) {
    const EngineId engine =
        split(tuple.stream_id).Route(tuple).value_or(kBuffered);
    routes_.push_back(engine);
    one_batch = one_batch && engine != kBuffered &&
                engine == routes_.front() && tuple.stream_id == first_stream;
  }
  if (one_batch) {
    SendBatch(now, routes_.front(), first_stream, std::move(tuples),
              emit_wall_us);
    return;
  }
  const size_t stride = split_of_stream_.size();
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (routes_[i] == kBuffered) continue;
    const size_t index = static_cast<size_t>(routes_[i]) * stride +
                         static_cast<size_t>(tuples[i].stream_id);
    if (index >= buckets_.size()) buckets_.resize(index + 1);
    if (buckets_[index].empty()) touched_.push_back(index);
    buckets_[index].push_back(std::move(tuples[i]));
  }
  // Ascending bucket index is ascending (engine, stream).
  std::sort(touched_.begin(), touched_.end());
  for (size_t index : touched_) {
    SendBatch(now, static_cast<EngineId>(index / stride),
              static_cast<StreamId>(index % stride),
              std::move(buckets_[index]), emit_wall_us);
    buckets_[index].clear();
  }
  touched_.clear();
}

void SplitHost::FilterAndRoute(Tick now, std::vector<Tuple> tuples,
                               int64_t emit_wall_us) {
  if (!selects_.empty()) {
    std::vector<Tuple> selected;
    selected.reserve(tuples.size());
    for (Tuple& t : tuples) {
      auto it = selects_.find(t.stream_id);
      if (it == selects_.end() || it->second->Process(t)) {
        selected.push_back(std::move(t));
      }
    }
    tuples = std::move(selected);
  }
  if (project_ != nullptr) {
    for (Tuple& t : tuples) project_->Process(&t);
  }
  if (!tuples.empty()) RouteAndSend(now, std::move(tuples), emit_wall_us);
}

void SplitHost::OnTupleBatch(Tick now, TupleBatch&& batch) {
  DCAPE_CHECK(HostsStream(batch.stream_id));
  FilterAndRoute(now, std::move(batch.tuples), batch.emit_wall_us);
}

void SplitHost::OnMessage(Tick now, const Message& message) {
  switch (message.type) {
    case MessageType::kTupleBatch: {
      OnTupleBatch(now, TupleBatch(std::get<TupleBatch>(message.payload)));
      return;
    }
    case MessageType::kPausePartitions: {
      const auto& pause = std::get<PausePartitions>(message.payload);
      if (config_.invariants != nullptr &&
          !paused_relocations_.insert(pause.relocation_id).second) {
        config_.invariants->Report(
            "split host " + std::to_string(config_.node_id) +
            " received duplicate pause for relocation " +
            std::to_string(pause.relocation_id));
      }
      for (auto& split : splits_) split->Pause(pause.partitions);
      if (DCAPE_TRACE_ACTIVE(config_.tracer)) {
        config_.tracer->EmitInstant(
            static_cast<int>(config_.node_id), now, obs::ev::kRelocPauseSplit,
            {obs::TraceArg::Int(
                "partitions",
                static_cast<int64_t>(pause.partitions.size()))},
            pause.relocation_id);
      }

      // Drain marker rides the tuple link to the old owner; FIFO delivery
      // guarantees every pre-pause tuple precedes it.
      DrainMarker marker;
      marker.relocation_id = pause.relocation_id;
      marker.split_host = config_.node_id;
      Message marker_msg;
      marker_msg.type = MessageType::kDrainMarker;
      marker_msg.from = config_.node_id;
      marker_msg.to = pause.sender_node;
      marker_msg.payload = marker;
      network_->Send(std::move(marker_msg), now);

      PauseAck ack;
      ack.relocation_id = pause.relocation_id;
      ack.split_host = config_.node_id;
      Message ack_msg;
      ack_msg.type = MessageType::kPauseAck;
      ack_msg.from = config_.node_id;
      ack_msg.to = config_.coordinator_node;
      ack_msg.payload = ack;
      network_->Send(std::move(ack_msg), now);
      return;
    }
    case MessageType::kUpdateRouting: {
      const auto& update = std::get<UpdateRouting>(message.payload);
      if (config_.invariants != nullptr &&
          paused_relocations_.erase(update.relocation_id) == 0) {
        config_.invariants->Report(
            "split host " + std::to_string(config_.node_id) +
            " received routing update for unknown relocation " +
            std::to_string(update.relocation_id));
      }
      // Flush buffered tuples to the new owner before acking; they travel
      // the same FIFO link as all future tuples to that engine.
      std::vector<Tuple> released;
      for (auto& split : splits_) {
        std::vector<Tuple> r = split->UpdateRoutingAndRelease(
            update.partitions, update.new_owner);
        released.insert(released.end(), std::make_move_iterator(r.begin()),
                        std::make_move_iterator(r.end()));
      }
      if (DCAPE_TRACE_ACTIVE(config_.tracer)) {
        config_.tracer->EmitInstant(
            static_cast<int>(config_.node_id), now, obs::ev::kRelocFlushSplit,
            {obs::TraceArg::Int("buffered",
                                static_cast<int64_t>(released.size())),
             obs::TraceArg::Int("new_owner", update.new_owner)},
            update.relocation_id);
      }
      if (!released.empty()) {
        DCAPE_LOG(kDebug) << "split host " << config_.node_id << " flushing "
                          << released.size() << " buffered tuples to engine "
                          << update.new_owner;
        RouteAndSend(now, std::move(released), /*emit_wall_us=*/0);
      }

      if (config_.invariants != nullptr) {
        for (PartitionId p : update.partitions) {
          for (auto& split : splits_) {
            if (split->IsPaused(p)) {
              config_.invariants->Report(
                  "split host " + std::to_string(config_.node_id) +
                  " left partition " + std::to_string(p) +
                  " paused after routing update");
            }
          }
        }
        if (paused_relocations_.empty() && total_buffered() != 0) {
          config_.invariants->Report(
              "split host " + std::to_string(config_.node_id) + " leaked " +
              std::to_string(total_buffered()) +
              " buffered tuples outside any relocation");
        }
      }

      RoutingUpdated ack;
      ack.relocation_id = update.relocation_id;
      ack.split_host = config_.node_id;
      Message ack_msg;
      ack_msg.type = MessageType::kRoutingUpdated;
      ack_msg.from = config_.node_id;
      ack_msg.to = config_.coordinator_node;
      ack_msg.payload = ack;
      network_->Send(std::move(ack_msg), now);
      return;
    }
    default:
      DCAPE_LOG(kWarning) << "split host " << config_.node_id
                          << " ignoring unexpected message "
                          << MessageTypeName(message.type);
      return;
  }
}

int64_t SplitHost::total_buffered() const {
  int64_t total = 0;
  for (const auto& split : splits_) total += split->buffered_count();
  return total;
}

int64_t SplitHost::paused_partition_count() const {
  int64_t total = 0;
  for (const auto& split : splits_) total += split->paused_count();
  return total;
}

}  // namespace dcape
