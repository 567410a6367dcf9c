#include "engine/query_engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "sim/invariants.h"
#include "state/group_merge.h"
#include "stream/stream_generator.h"

namespace dcape {

QueryEngine::QueryEngine(const EngineConfig& config, Transport* network,
                         const SpillStore::Config& disk_config,
                         std::unique_ptr<DiskBackend> disk_backend)
    : config_(config),
      network_(network),
      owned_metrics_(config.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : owned_metrics_.get()),
      tracer_(config.tracer),
      spill_store_(config.engine_id, disk_config, std::move(disk_backend),
                   metrics_),
      mjoin_(config.num_streams, &spill_store_, config.projection,
             config.window_ticks, config.segment_format),
      controller_(config.spill, config.productivity, config.seed),
      stats_timer_(config.stats_period),
      restore_timer_(config.restore.check_period),
      evict_timer_(config.evict_period) {
  DCAPE_CHECK(network_ != nullptr);
  const int entity = static_cast<int>(config.engine_id);
  c_.tuples_processed = metrics_->AddCounter(obs::m::kTuplesProcessed, entity);
  c_.results_produced = metrics_->AddCounter(obs::m::kResultsProduced, entity);
  c_.spill_events = metrics_->AddCounter(obs::m::kSpillEvents, entity);
  c_.forced_spill_events =
      metrics_->AddCounter(obs::m::kForcedSpillEvents, entity);
  c_.spilled_bytes = metrics_->AddCounter(obs::m::kSpilledBytes, entity);
  c_.relocations_out = metrics_->AddCounter(obs::m::kRelocationsOut, entity);
  c_.relocations_in = metrics_->AddCounter(obs::m::kRelocationsIn, entity);
  c_.bytes_relocated_out =
      metrics_->AddCounter(obs::m::kBytesRelocatedOut, entity);
  c_.bytes_relocated_in =
      metrics_->AddCounter(obs::m::kBytesRelocatedIn, entity);
  c_.restored_segments =
      metrics_->AddCounter(obs::m::kRestoredSegments, entity);
  c_.restored_bytes = metrics_->AddCounter(obs::m::kRestoredBytes, entity);
  c_.restored_results = metrics_->AddCounter(obs::m::kRestoredResults, entity);
  c_.evicted_tuples = metrics_->AddCounter(obs::m::kEvictedTuples, entity);
  c_.eviction_segments =
      metrics_->AddCounter(obs::m::kEvictionSegments, entity);
  c_.spill_write_failures =
      metrics_->AddCounter(obs::m::kSpillWriteFailures, entity);
  c_.busy_io_ticks = metrics_->AddCounter(obs::m::kBusyIoTicks, entity);
  c_.spill_io_ticks = metrics_->AddCounter(obs::m::kSpillIoTicks, entity);
  c_.partial_spill_groups =
      metrics_->AddCounter(obs::m::kPartialSpillGroups, entity);
  c_.subpartition_splits =
      metrics_->AddCounter(obs::m::kSubpartitionSplits, entity);
  c_.cold_probe_misses = metrics_->AddGauge(obs::m::kColdProbeMisses, entity);
  c_.max_spill_stall_ticks =
      metrics_->AddGauge(obs::m::kMaxSpillStallTicks, entity);
  c_.state_tracked_bytes =
      metrics_->AddGauge(obs::m::kStateTrackedBytes, entity);
  c_.state_resident_bytes =
      metrics_->AddGauge(obs::m::kStateResidentBytes, entity);
  c_.tuples_per_stream.reserve(static_cast<size_t>(config.num_streams));
  for (int s = 0; s < config.num_streams; ++s) {
    c_.tuples_per_stream.push_back(
        metrics_->AddCounter(obs::m::kTuplesPerStream, entity, s));
  }
}

QueryEngine::Counters QueryEngine::counters() const {
  Counters c;
  c.tuples_processed = c_.tuples_processed->value();
  c.results_produced = c_.results_produced->value();
  c.spill_events = c_.spill_events->value();
  c.forced_spill_events = c_.forced_spill_events->value();
  c.spilled_bytes = c_.spilled_bytes->value();
  c.relocations_out = c_.relocations_out->value();
  c.relocations_in = c_.relocations_in->value();
  c.bytes_relocated_out = c_.bytes_relocated_out->value();
  c.bytes_relocated_in = c_.bytes_relocated_in->value();
  c.restored_segments = c_.restored_segments->value();
  c.restored_bytes = c_.restored_bytes->value();
  c.restored_results = c_.restored_results->value();
  c.evicted_tuples = c_.evicted_tuples->value();
  c.eviction_segments = c_.eviction_segments->value();
  c.spill_write_failures = c_.spill_write_failures->value();
  c.partial_spill_groups = c_.partial_spill_groups->value();
  c.subpartition_splits = c_.subpartition_splits->value();
  // The authoritative cold-miss count lives in the state manager;
  // refresh the gauge so registry dumps and this snapshot agree.
  c_.cold_probe_misses->Set(mjoin_.state().cold_probe_misses());
  c.cold_probe_misses = c_.cold_probe_misses->value();
  c.max_spill_stall_ticks = c_.max_spill_stall_ticks->value();
  // Likewise for the state's memory high-water marks.
  c_.state_tracked_bytes->Set(mjoin_.state().peak_bytes());
  c_.state_resident_bytes->Set(mjoin_.state().peak_resident_bytes());
  c.peak_state_tracked_bytes = c_.state_tracked_bytes->value();
  c.peak_state_resident_bytes = c_.state_resident_bytes->value();
  c.tuples_per_stream.reserve(c_.tuples_per_stream.size());
  for (const obs::Counter* cell : c_.tuples_per_stream) {
    c.tuples_per_stream.push_back(cell->value());
  }
  return c;
}

void QueryEngine::OnTupleBatch(Tick now, TupleBatch&& batch) {
  if (now >= busy_until_ && pending_batches_.empty()) {
    ProcessBatch(now, batch);
  } else {
    pending_batches_.push_back(std::move(batch));
  }
}

void QueryEngine::OnMessage(Tick now, const Message& message) {
  switch (message.type) {
    case MessageType::kTupleBatch: {
      OnTupleBatch(now, TupleBatch(std::get<TupleBatch>(message.payload)));
      return;
    }
    case MessageType::kComputePartitionsToMove: {
      const auto& req = std::get<ComputePartitionsToMove>(message.payload);
      // Algorithm 1's "cptv" event: pick the most productive groups worth
      // `amount_bytes` and lock them against concurrent spills.
      mode_ = EngineMode::kStateRelocation;
      std::vector<PartitionId> parts = controller_.ChoosePartitionsToMove(
          mjoin_.state(), req.amount_bytes);
      mjoin_.state().LockGroups(parts);
      OutgoingRelocation& out = outgoing_[req.relocation_id];
      out.receiver = req.receiver;
      out.partitions = parts;

      PartitionsToMove reply;
      reply.relocation_id = req.relocation_id;
      reply.sender = config_.engine_id;
      reply.partitions = parts;
      for (PartitionId p : parts) {
        const PartitionGroup* g = mjoin_.state().FindGroup(p);
        if (g != nullptr) reply.bytes += g->bytes();
      }
      Message msg;
      msg.type = MessageType::kPartitionsToMove;
      msg.from = config_.node_id;
      msg.to = config_.coordinator_node;
      msg.payload = std::move(reply);
      network_->Send(std::move(msg), now);
      if (parts.empty()) {
        // Nothing to move; the coordinator aborts this relocation.
        outgoing_.erase(req.relocation_id);
        mode_ = EngineMode::kNormal;
      }
      return;
    }
    case MessageType::kDrainMarker: {
      const auto& marker = std::get<DrainMarker>(message.payload);
      auto it = outgoing_.find(marker.relocation_id);
      if (it == outgoing_.end()) return;  // aborted relocation
      it->second.drain_markers += 1;
      MaybeFinishOutgoing(now, marker.relocation_id);
      return;
    }
    case MessageType::kTransferStates: {
      const auto& cmd = std::get<TransferStates>(message.payload);
      auto it = outgoing_.find(cmd.relocation_id);
      if (it == outgoing_.end()) return;
      it->second.transfer_authorized = true;
      MaybeFinishOutgoing(now, cmd.relocation_id);
      return;
    }
    case MessageType::kStateTransfer: {
      const auto& transfer = std::get<StateTransfer>(message.payload);
      int64_t installed_bytes = 0;
      for (const SerializedGroup& group : transfer.groups) {
        relocated_away_.erase(group.partition);
        const int64_t before = mjoin_.state().total_bytes();
        Status status = mjoin_.state().InstallGroup(group.bytes);
        if (!status.ok()) {
          DCAPE_LOG(kError) << "engine " << config_.engine_id
                            << " failed to install relocated group "
                            << group.partition << ": " << status.ToString();
          continue;
        }
        installed_bytes += mjoin_.state().total_bytes() - before;
        if (DCAPE_TRACE_ACTIVE(tracer_)) {
          tracer_->EmitInstant(
              lane(), now, obs::ev::kRelocInstallGroup,
              {obs::TraceArg::Int("partition", group.partition)},
              transfer.relocation_id);
        }
      }
      c_.relocations_in->Increment();
      c_.bytes_relocated_in->Add(installed_bytes);
      if (DCAPE_TRACE_ACTIVE(tracer_)) {
        tracer_->EmitInstant(
            lane(), now, obs::ev::kRelocInstall,
            {obs::TraceArg::Int("bytes", installed_bytes),
             obs::TraceArg::Int("groups",
                                static_cast<int64_t>(transfer.groups.size()))},
            transfer.relocation_id);
      }

      StatesInstalled ack;
      ack.relocation_id = transfer.relocation_id;
      ack.receiver = config_.engine_id;
      ack.bytes = installed_bytes;
      Message msg;
      msg.type = MessageType::kStatesInstalled;
      msg.from = config_.node_id;
      msg.to = config_.coordinator_node;
      msg.payload = ack;
      network_->Send(std::move(msg), now);
      return;
    }
    case MessageType::kForceSpill: {
      const auto& cmd = std::get<ForceSpill>(message.payload);
      std::vector<SpillRequest> plan =
          controller_.PlanForcedSpill(mjoin_.state(), cmd.amount_bytes);
      // Report raw (in-memory) state bytes removed, not the encoded
      // on-disk size: the coordinator asked for `amount_bytes` of state.
      const int64_t before = spill_store_.total_raw_bytes();
      if (!plan.empty()) DoSpill(now, plan, /*forced=*/true);

      SpillComplete done;
      done.engine = config_.engine_id;
      done.bytes_spilled = spill_store_.total_raw_bytes() - before;
      Message msg;
      msg.type = MessageType::kSpillComplete;
      msg.from = config_.node_id;
      msg.to = config_.coordinator_node;
      msg.payload = done;
      network_->Send(std::move(msg), now);
      return;
    }
    default:
      DCAPE_LOG(kWarning) << "engine " << config_.engine_id
                          << " ignoring unexpected message "
                          << MessageTypeName(message.type);
      return;
  }
}

void QueryEngine::ProcessBatch(Tick now, const TupleBatch& batch) {
  std::vector<JoinResult> results;
  for (const Tuple& tuple : batch.tuples) {
    const PartitionId partition =
        StreamGenerator::PartitionOfKey(tuple.join_key);
    const auto stream = static_cast<size_t>(tuple.stream_id);
    if (config_.invariants != nullptr &&
        relocated_away_.count(partition) > 0) {
      config_.invariants->Report(
          "engine " + std::to_string(config_.engine_id) +
          " processed a tuple for relocated-away partition " +
          std::to_string(partition));
    }
    mjoin_.Process(partition, tuple, &results);
    c_.tuples_processed->Increment();
    c_.tuples_per_stream[stream]->Increment();
  }
  if (DCAPE_TRACE_ACTIVE(tracer_) && tracer_->verbose()) {
    tracer_->EmitInstant(
        lane(), now, obs::ev::kBatch,
        {obs::TraceArg::Int("tuples",
                            static_cast<int64_t>(batch.tuples.size())),
         obs::TraceArg::Int("results",
                            static_cast<int64_t>(results.size()))});
  }
  if (!results.empty()) {
    c_.results_produced->Add(static_cast<int64_t>(results.size()));
    outputs_in_window_ += static_cast<int64_t>(results.size());
    ResultBatch out;
    out.results = std::move(results);
    // Realtime runs measure end-to-end latency from the input batch's
    // wall-clock emission stamp (0 in the simulator).
    out.emit_wall_us = batch.emit_wall_us;
    network_->Send(
        MakeResultBatchMessage(config_.node_id, config_.sink_node,
                               std::move(out)),
        now);
  }
}

void QueryEngine::DrainPending(Tick now) {
  while (!pending_batches_.empty() && now >= busy_until_) {
    ProcessBatch(now, pending_batches_.front());
    pending_batches_.pop_front();
  }
}

void QueryEngine::DoSpill(Tick now, const std::vector<SpillRequest>& plan,
                          bool forced) {
  const EngineMode previous_mode = mode_;
  mode_ = EngineMode::kStateSpill;
  const int64_t state_before = mjoin_.state().total_bytes();
  StatusOr<MJoin::SpillOutcome> outcome = mjoin_.SpillGradual(
      plan, now, MaxPieceBytes(), config_.spill.max_subpartition_depth);
  DCAPE_CHECK(outcome.ok());
  c_.spilled_bytes->Add(outcome->bytes);
  if (forced) {
    c_.forced_spill_events->Increment();
  } else {
    c_.spill_events->Increment();
  }
  c_.partial_spill_groups->Add(outcome->partial_groups);
  c_.subpartition_splits->Add(outcome->subpartition_splits);
  if (config_.invariants != nullptr) {
    // Partial-resident accounting: bytes leaving memory must equal the
    // bytes landing on disk (failed pieces reinstall exactly). A drift
    // here means a partial split lost or duplicated buckets.
    const int64_t removed = state_before - mjoin_.state().total_bytes();
    if (removed != outcome->bytes) {
      config_.invariants->Report(
          "engine " + std::to_string(config_.engine_id) +
          " partial-spill accounting drift: removed " +
          std::to_string(removed) + " bytes from memory but spilled " +
          std::to_string(outcome->bytes));
    }
  }
  if (outcome->failed_groups > 0) {
    // Transient write failures: the affected groups were reinstalled in
    // memory (no state lost) and will be retried by a later spill check.
    c_.spill_write_failures->Add(outcome->failed_groups);
    DCAPE_LOG(kWarning) << "engine " << config_.engine_id << " kept "
                        << outcome->failed_groups
                        << " groups in memory after spill write failure: "
                        << outcome->first_error.ToString();
  }
  busy_until_ = std::max(busy_until_, now) + outcome->io_ticks;
  c_.busy_io_ticks->Add(outcome->io_ticks);
  c_.spill_io_ticks->Add(outcome->io_ticks);
  if (outcome->io_ticks > c_.max_spill_stall_ticks->value()) {
    c_.max_spill_stall_ticks->Set(outcome->io_ticks);
  }
  if (DCAPE_TRACE_ACTIVE(tracer_)) {
    tracer_->EmitComplete(
        lane(), now, obs::ev::kSpill, outcome->io_ticks,
        {obs::TraceArg::Int("groups", outcome->groups),
         obs::TraceArg::Int("bytes", outcome->bytes),
         obs::TraceArg::Int("forced", forced ? 1 : 0),
         obs::TraceArg::Int("failed_groups", outcome->failed_groups),
         obs::TraceArg::Int("segments", outcome->segments),
         obs::TraceArg::Int("partial_groups", outcome->partial_groups)});
    if (outcome->subpartition_splits > 0) {
      tracer_->EmitInstant(
          lane(), now, obs::ev::kSpillSplit,
          {obs::TraceArg::Int("splits", outcome->subpartition_splits),
           obs::TraceArg::Int("segments", outcome->segments),
           obs::TraceArg::Int("max_depth", outcome->max_sub_depth)});
    }
  }
  DCAPE_LOG(kInfo) << "engine " << config_.engine_id << " spilled "
                   << outcome->groups << " groups, " << outcome->bytes
                   << " bytes" << (forced ? " (forced)" : "") << " at t="
                   << now;
  mode_ = previous_mode;
}

void QueryEngine::EvictExpired(Tick now) {
  const Tick cutoff = now - config_.window_ticks;
  if (cutoff <= 0) return;
  // Partitions with disk-resident generations still owe cross-generation
  // results involving the expired tuples; preserve those as eviction
  // generations. Expired tuples of purely memory-resident partitions
  // produced everything they ever will (window + monotonic arrivals) and
  // are dropped unencoded.
  std::set<PartitionId> has_disk;
  for (const SpillSegmentMeta& meta : spill_store_.segments()) {
    has_disk.insert(meta.partition);
  }
  std::vector<StateManager::ExtractedGroup> evicted =
      mjoin_.state().EvictExpired(cutoff, &has_disk);
  if (evicted.empty()) return;

  int64_t dropped = 0;
  Tick io_total = 0;
  int64_t tuples_total = 0;
  for (StateManager::ExtractedGroup& group : evicted) {
    if (has_disk.count(group.partition) == 0) {
      c_.evicted_tuples->Add(group.tuple_count);
      tuples_total += group.tuple_count;
      ++dropped;
      continue;
    }
    StatusOr<Tick> io = spill_store_.WriteSegment(
        group.partition, now, group.blob, group.tuple_count,
        /*evicted=*/true, group.raw_bytes);
    if (!io.ok()) {
      // Transient write failure: keep the expired tuples in memory. The
      // window filter stops them from producing new runtime results, the
      // cleanup phase still crosses them against disk generations, and a
      // later eviction pass retries the write. Reinstalling our own
      // serialized blob cannot fail.
      c_.spill_write_failures->Increment();
      DCAPE_LOG(kWarning) << "engine " << config_.engine_id
                          << " kept expired group " << group.partition
                          << " in memory after eviction write failure: "
                          << io.status().ToString();
      DCAPE_CHECK(mjoin_.state().InstallGroup(group.blob).ok());
      continue;
    }
    c_.evicted_tuples->Add(group.tuple_count);
    tuples_total += group.tuple_count;
    busy_until_ = std::max(busy_until_, now) + *io;
    io_total += *io;
    c_.eviction_segments->Increment();
  }
  c_.busy_io_ticks->Add(io_total);
  if (DCAPE_TRACE_ACTIVE(tracer_)) {
    tracer_->EmitComplete(
        lane(), now, obs::ev::kEvict, io_total,
        {obs::TraceArg::Int("groups", static_cast<int64_t>(evicted.size())),
         obs::TraceArg::Int("tuples", tuples_total),
         obs::TraceArg::Int("dropped", dropped)});
  }
  DCAPE_LOG(kDebug) << "engine " << config_.engine_id << " evicted "
                    << evicted.size() << " groups (" << dropped
                    << " dropped) at t=" << now;
}

void QueryEngine::MaybeRestore(Tick now) {
  // Online restore is only sound without window semantics: with windows,
  // eviction generations may owe results against a generation that
  // restore would remove from the disk inventory (see window_test.cc).
  // The end-of-run cleanup handles everything in that mode.
  if (config_.window_ticks > 0) return;
  const int64_t watermark = static_cast<int64_t>(
      config_.restore.low_watermark *
      static_cast<double>(config_.spill.memory_threshold_bytes));
  if (state_bytes() >= watermark) return;
  if (spill_store_.segments().empty()) return;

  // Oldest generation whose partition this engine still owns (has a
  // live memory-resident group — otherwise the partition was relocated
  // away and restoring it here would create a second copy that a later
  // relocation could merge without producing the owed cross results),
  // is not mid-relocation, and fits under the spill threshold.
  const SpillSegmentMeta* chosen = nullptr;
  for (const SpillSegmentMeta& meta : spill_store_.segments()) {
    if (mjoin_.state().IsLocked(meta.partition)) continue;
    if (mjoin_.state().FindGroup(meta.partition) == nullptr) continue;
    if (state_bytes() + meta.bytes >
        config_.spill.memory_threshold_bytes) {
      continue;
    }
    chosen = &meta;
    break;
  }
  if (chosen == nullptr) return;

  Tick io_ticks = 0;
  StatusOr<std::string> blob = spill_store_.ReadSegment(*chosen, &io_ticks);
  if (!blob.ok()) {
    DCAPE_LOG(kError) << "engine " << config_.engine_id
                      << " failed to read segment for restore: "
                      << blob.status().ToString();
    return;
  }
  StatusOr<PartitionGroup> generation = PartitionGroup::Deserialize(*blob);
  if (!generation.ok()) {
    DCAPE_LOG(kError) << "engine " << config_.engine_id
                      << " failed to decode restored generation: "
                      << generation.status().ToString();
    return;
  }

  // Produce the cross-generation results this generation owes against
  // the current memory-resident group, then merge.
  std::vector<JoinResult> results;
  const PartitionGroup* resident =
      mjoin_.state().FindGroup(chosen->partition);
  const ResultProjection* projection =
      mjoin_.state().projection().has_value()
          ? &*mjoin_.state().projection()
          : nullptr;
  if (resident != nullptr) {
    CrossJoinGenerations(*generation, *resident, projection, &results,
                         config_.window_ticks);
  }

  const int64_t segment_id = chosen->segment_id;
  const int64_t bytes = chosen->bytes;
  const PartitionId restored_partition = chosen->partition;
  DCAPE_CHECK(mjoin_.state().InstallGroup(*blob).ok());
  DCAPE_CHECK(spill_store_.RemoveSegment(segment_id).ok());
  // Once no disk generation remains for the partition, its resident
  // group is complete again — stop counting probe misses as cold hits.
  bool still_disk_backed = false;
  for (const SpillSegmentMeta& meta : spill_store_.segments()) {
    if (meta.partition == restored_partition) {
      still_disk_backed = true;
      break;
    }
  }
  if (!still_disk_backed) {
    mjoin_.state().ClearDiskBacked(restored_partition);
  }
  busy_until_ = std::max(busy_until_, now) + io_ticks;
  c_.busy_io_ticks->Add(io_ticks);

  c_.restored_segments->Increment();
  c_.restored_bytes->Add(bytes);
  c_.restored_results->Add(static_cast<int64_t>(results.size()));
  if (DCAPE_TRACE_ACTIVE(tracer_)) {
    tracer_->EmitComplete(
        lane(), now, obs::ev::kRestore, io_ticks,
        {obs::TraceArg::Int("segment", segment_id),
         obs::TraceArg::Int("bytes", bytes),
         obs::TraceArg::Int("results",
                            static_cast<int64_t>(results.size()))});
  }
  DCAPE_LOG(kInfo) << "engine " << config_.engine_id << " restored segment "
                   << segment_id << " (" << bytes << " B), producing "
                   << results.size() << " deferred results at t=" << now;

  if (!results.empty()) {
    c_.results_produced->Add(static_cast<int64_t>(results.size()));
    outputs_in_window_ += static_cast<int64_t>(results.size());
    ResultBatch out;
    out.results = std::move(results);
    network_->Send(MakeResultBatchMessage(config_.node_id, config_.sink_node,
                                          std::move(out)),
                   now);
  }
}

void QueryEngine::MaybeFinishOutgoing(Tick now, int64_t relocation_id) {
  auto it = outgoing_.find(relocation_id);
  if (it == outgoing_.end()) return;
  OutgoingRelocation& out = it->second;
  if (!out.transfer_authorized ||
      out.drain_markers < config_.num_split_hosts) {
    return;
  }
  // The drain markers only prove the pre-pause tuples *arrived*; they can
  // still sit in pending_batches_ behind disk I/O (markers bypass the
  // queue via OnMessage). Shipping now would join those stragglers
  // against a fresh empty group and lose their results. OnTick retries
  // once the queue drains.
  if (!pending_batches_.empty()) return;

  // All pre-pause tuples have been processed and the coordinator
  // authorized the move: extract and ship the groups.
  std::vector<StateManager::ExtractedGroup> extracted =
      mjoin_.state().ExtractGroups(out.partitions);
  mjoin_.state().UnlockGroups(out.partitions);

  StateTransfer transfer;
  transfer.relocation_id = relocation_id;
  transfer.sender = config_.engine_id;
  int64_t bytes = 0;
  for (StateManager::ExtractedGroup& group : extracted) {
    bytes += group.bytes;
    transfer.groups.push_back(
        SerializedGroup{group.partition, std::move(group.blob)});
  }
  c_.relocations_out->Increment();
  c_.bytes_relocated_out->Add(bytes);
  if (DCAPE_TRACE_ACTIVE(tracer_)) {
    for (const SerializedGroup& group : transfer.groups) {
      tracer_->EmitInstant(
          lane(), now, obs::ev::kRelocShipGroup,
          {obs::TraceArg::Int("partition", group.partition),
           obs::TraceArg::Int("bytes",
                              static_cast<int64_t>(group.bytes.size()))},
          relocation_id);
    }
    tracer_->EmitInstant(
        lane(), now, obs::ev::kRelocShip,
        {obs::TraceArg::Int("groups",
                            static_cast<int64_t>(transfer.groups.size())),
         obs::TraceArg::Int("bytes", bytes),
         obs::TraceArg::Int("receiver", out.receiver)},
        relocation_id);
  }
  if (config_.invariants != nullptr) {
    for (PartitionId p : out.partitions) relocated_away_.insert(p);
  }

  Message msg;
  msg.type = MessageType::kStateTransfer;
  msg.from = config_.node_id;
  msg.to = static_cast<NodeId>(out.receiver);
  msg.payload = std::move(transfer);
  network_->Send(std::move(msg), now);

  DCAPE_LOG(kInfo) << "engine " << config_.engine_id << " relocated "
                   << extracted.size() << " groups (" << bytes
                   << " bytes) to engine " << out.receiver << " at t=" << now;
  outgoing_.erase(it);
  mode_ = EngineMode::kNormal;
}

void QueryEngine::OnTick(Tick now) {
  DrainPending(now);

  // An outgoing relocation may have been held back by queued batches
  // when its last drain marker arrived; retry now that the queue is
  // (possibly) empty. Ids are collected first: a finishing relocation
  // erases itself from outgoing_.
  if (!outgoing_.empty() && pending_batches_.empty()) {
    std::vector<int64_t> ready;
    ready.reserve(outgoing_.size());
    for (const auto& [id, out] : outgoing_) ready.push_back(id);
    for (int64_t id : ready) MaybeFinishOutgoing(now, id);
  }

  if (StrategySpillsLocally(config_.strategy) && now >= busy_until_ &&
      mode_ == EngineMode::kNormal) {
    std::vector<SpillRequest> plan = controller_.PlanSpill(now, mjoin_.state());
    if (!plan.empty()) {
      DoSpill(now, plan, /*forced=*/false);
    }
  }

  if (config_.restore.enabled && now >= busy_until_ &&
      mode_ == EngineMode::kNormal && restore_timer_.Expired(now)) {
    MaybeRestore(now);
  }

  if (config_.window_ticks > 0 && now >= busy_until_ &&
      mode_ == EngineMode::kNormal && evict_timer_.Expired(now)) {
    EvictExpired(now);
  }

  if (stats_timer_.Expired(now)) {
    controller_.RollProductivityWindow(mjoin_.state());
    if (config_.coordinator_node == kInvalidNode) return;
    StatsReport report;
    report.engine = config_.engine_id;
    report.state_bytes = mjoin_.state().total_bytes();
    report.num_groups = mjoin_.state().group_count();
    report.outputs_in_window = outputs_in_window_;
    report.total_outputs = mjoin_.state().total_outputs();
    report.spilled_bytes = spill_store_.total_spilled_bytes();
    report.cold_probe_misses = mjoin_.state().cold_probe_misses();
    outputs_in_window_ = 0;
    network_->Send(MakeStatsReportMessage(config_.node_id,
                                          config_.coordinator_node, report),
                   now);
  }
}

}  // namespace dcape
