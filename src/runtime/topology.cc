#include "runtime/topology.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/taxonomy.h"
#include "runtime/exec_pool.h"
#include "sim/faulty_backend.h"
#include "storage/disk_backend.h"
#include "stream/stream_generator.h"
#include "stream/trace.h"

namespace dcape {
namespace {

/// Split hosts `config` deploys: its setting clamped to the stream count.
int NumSplitHosts(const ClusterConfig& config) {
  return std::clamp(config.num_split_hosts, 1, config.workload.num_streams);
}

}  // namespace

int Topology::NumNodes(const ClusterConfig& config) {
  return config.num_engines + 3 + NumSplitHosts(config);
}

Topology::Topology(const ClusterConfig& config, Transport* transport,
                   std::string_view driver_lane, SinkHook sink_hook)
    : config_(config),
      num_hosts_(NumSplitHosts(config)),
      coordinator_node_(config.num_engines),
      sink_node_(config.num_engines + 1),
      generator_node_(config.num_engines + 2),
      placement_(ComputePlacement(config.workload.num_partitions,
                                  config.num_engines,
                                  config.placement_fractions)),
      sink_(config.collect_results),
      sink_hook_(std::move(sink_hook)) {
  DCAPE_CHECK_GT(config_.num_engines, 0);
  const int num_streams = config_.workload.num_streams;

  if (config_.trace) {
    // Lanes: engines 0..N-1, coordinator, sink, generator, split hosts,
    // plus one driver lane (cleanup spans, run-level events).
    tracer_ = std::make_unique<obs::Tracer>(NumNodes(config_) + 1,
                                            config_.trace_verbose);
    for (EngineId e = 0; e < config_.num_engines; ++e) {
      tracer_->SetLaneName(e, "engine " + std::to_string(e));
    }
    tracer_->SetLaneName(coordinator_node_, "coordinator");
    tracer_->SetLaneName(sink_node_, "sink");
    tracer_->SetLaneName(generator_node_, "generator");
    for (int h = 0; h < num_hosts_; ++h) {
      tracer_->SetLaneName(split_host_node(h),
                           "split host " + std::to_string(h));
    }
    tracer_->SetLaneName(tracer_->driver_lane(), std::string(driver_lane));
  }
  // The cleanup phase must project and window results identically to
  // the engines.
  config_.cleanup.projection = config_.projection;
  config_.cleanup.window_ticks = config_.join_window_ticks;

  // Default the fluctuation set to engine 0's partitions (the paper's
  // alternating-load setup toggles between the two machines' shares).
  if (config_.workload.fluctuation.enabled &&
      config_.workload.fluctuation.set_a.empty()) {
    config_.workload.fluctuation.set_a = PartitionsOfEngine(placement_, 0);
  }

  // Query engines.
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    EngineConfig engine_config;
    engine_config.engine_id = e;
    engine_config.node_id = e;
    engine_config.coordinator_node = coordinator_node_;
    engine_config.sink_node = sink_node_;
    engine_config.num_streams = num_streams;
    engine_config.num_split_hosts = num_hosts_;
    engine_config.strategy = config_.strategy;
    engine_config.spill = config_.spill;
    engine_config.productivity = config_.productivity;
    engine_config.restore = config_.restore;
    engine_config.window_ticks = config_.join_window_ticks;
    if (!config_.per_engine_thresholds.empty()) {
      DCAPE_CHECK_EQ(config_.per_engine_thresholds.size(),
                     static_cast<size_t>(config_.num_engines));
      engine_config.spill.memory_threshold_bytes =
          config_.per_engine_thresholds[static_cast<size_t>(e)];
    }
    engine_config.stats_period = config_.stats_period;
    engine_config.projection = config_.projection;
    engine_config.segment_format = config_.segment_format;
    if (!config_.per_engine_segment_format.empty()) {
      DCAPE_CHECK_EQ(config_.per_engine_segment_format.size(),
                     static_cast<size_t>(config_.num_engines));
      engine_config.segment_format =
          config_.per_engine_segment_format[static_cast<size_t>(e)];
    }
    engine_config.seed = config_.seed + 1000 + static_cast<uint64_t>(e);
    engine_config.invariants = config_.invariants.get();
    engine_config.metrics = &metrics_;
    engine_config.tracer = tracer_.get();

    std::unique_ptr<DiskBackend> backend;
    if (config_.use_file_backend) {
      backend = MakeTempFileBackend(config_.file_backend_prefix + "_e" +
                                    std::to_string(e));
    } else {
      backend = std::make_unique<MemoryDiskBackend>();
    }
    if (config_.fault_plan != nullptr) {
      backend = std::make_unique<sim::FaultyBackend>(
          std::move(backend), config_.fault_plan.get(), e);
    }
    engines_.push_back(std::make_unique<QueryEngine>(
        engine_config, transport, config_.disk, std::move(backend)));
  }

  // Global coordinator.
  CoordinatorConfig coord_config;
  coord_config.node_id = coordinator_node_;
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    coord_config.engine_nodes.push_back(e);
    coord_config.engine_memory_thresholds.push_back(
        engine(e).config().spill.memory_threshold_bytes);
  }
  for (int h = 0; h < num_hosts_; ++h) {
    coord_config.split_hosts.push_back(split_host_node(h));
  }
  coord_config.strategy = config_.strategy;
  coord_config.relocation = config_.relocation;
  coord_config.active = config_.active_disk;
  coord_config.invariants = config_.invariants.get();
  coord_config.metrics = &metrics_;
  coord_config.tracer = tracer_.get();
  coordinator_ = std::make_unique<GlobalCoordinator>(coord_config, transport);

  // Split hosts: streams assigned round-robin over the hosts.
  if (!config_.select_per_stream.empty()) {
    DCAPE_CHECK_EQ(config_.select_per_stream.size(),
                   static_cast<size_t>(num_streams));
  }
  std::vector<NodeId> host_of_stream(static_cast<size_t>(num_streams));
  for (int h = 0; h < num_hosts_; ++h) {
    SplitHostConfig split_config;
    split_config.node_id = split_host_node(h);
    split_config.coordinator_node = coordinator_node_;
    for (StreamId s = h; s < num_streams; s += num_hosts_) {
      split_config.streams.push_back(s);
      host_of_stream[static_cast<size_t>(s)] = split_config.node_id;
      if (!config_.select_per_stream.empty()) {
        split_config.select_per_stream.push_back(
            config_.select_per_stream[static_cast<size_t>(s)]);
      }
    }
    split_config.project_payload_to = config_.project_payload_to;
    split_config.invariants = config_.invariants.get();
    split_config.tracer = tracer_.get();
    split_hosts_.push_back(
        std::make_unique<SplitHost>(split_config, placement_, transport));
  }

  // Stream generator node (synthetic workload or trace replay).
  std::unique_ptr<InputSource> source;
  if (config_.replay_trace != nullptr) {
    StatusOr<TraceSource> trace = TraceSource::FromBytes(*config_.replay_trace);
    // ClusterConfig::Builder::Validate rejects both cases with a message.
    DCAPE_CHECK(trace.ok() && trace->num_streams() == num_streams);
    source = std::make_unique<TraceSource>(*std::move(trace));
  } else {
    source = std::make_unique<StreamGenerator>(config_.workload);
  }
  generator_ = std::make_unique<GeneratorNode>(
      generator_node_, std::move(source), host_of_stream, transport,
      config_.record_trace.get());

  // Wire delivery handlers. Data-plane messages (tuple batches, result
  // batches) are moved out of the delivered message instead of copied.
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    QueryEngine* node = &engine(e);
    transport->RegisterNode(e, [node](Tick now, Message& m) {
      if (m.type == MessageType::kTupleBatch) {
        node->OnTupleBatch(now, std::move(std::get<TupleBatch>(m.payload)));
      } else {
        node->OnMessage(now, m);
      }
    });
  }
  transport->RegisterNode(coordinator_node_,
                          [this](Tick now, const Message& m) {
                            coordinator_->OnMessage(now, m);
                          });
  for (int h = 0; h < num_hosts_; ++h) {
    SplitHost* host = &split_host(h);
    transport->RegisterNode(
        split_host_node(h), [host](Tick now, Message& m) {
          if (m.type == MessageType::kTupleBatch) {
            host->OnTupleBatch(now,
                               std::move(std::get<TupleBatch>(m.payload)));
          } else {
            host->OnMessage(now, m);
          }
        });
  }
  if (config_.aggregate_op.has_value()) {
    aggregate_ = std::make_unique<GroupByAggregate>(*config_.aggregate_op);
  }
  // The generator node needs no handler: nothing sends to it.
  transport->RegisterNode(sink_node_, [this](Tick now, Message& m) {
    DCAPE_CHECK(m.type == MessageType::kResultBatch);
    auto& batch = std::get<ResultBatch>(m.payload);
    if (sink_hook_) sink_hook_(batch);
    if (aggregate_ != nullptr) aggregate_->ConsumeAll(batch.results);
    sink_.Consume(now, batch.results);
  });

  memory_series_.resize(static_cast<size_t>(config_.num_engines));
  for (EngineId e = 0; e < config_.num_engines; ++e) {
    memory_series_[static_cast<size_t>(e)].set_name(
        "engine" + std::to_string(e) + "_bytes");
  }
  throughput_series_.set_name("cumulative_results");
}

StatusOr<CleanupStats> Topology::RunCleanup(Tick start) {
  std::vector<const SpillStore*> stores;
  std::vector<const StateManager*> states;
  for (const auto& node : engines_) {
    stores.push_back(&node->spill_store());
    states.push_back(&node->mjoin().state());
  }
  CleanupProcessor processor(config_.cleanup, config_.workload.num_streams);
  ExecPool pool(std::max(1, config_.num_threads));
  StatusOr<CleanupStats> stats = processor.Run(stores, states, &pool);
  if (!stats.ok()) return stats;
  // Streaming-pipeline observability. The peak depends on lane
  // interleaving, so it lives in the metrics plane only — never in the
  // trace, which must stay bit-identical.
  if (cleanup_peak_gauge_ == nullptr) {
    cleanup_peak_gauge_ = metrics_.AddGauge(obs::m::kCleanupPeakResidentBytes);
    cleanup_blocks_gauge_ = metrics_.AddGauge(obs::m::kCleanupBlocksRead);
  }
  cleanup_peak_gauge_->Set(stats->peak_resident_bytes);
  cleanup_blocks_gauge_->Set(stats->blocks_read);
  // The cleanup pass has no per-node event loop; its spans are emitted
  // post-hoc from the driver lane out of the stats it reports.
  if (DCAPE_TRACE_ACTIVE(tracer_.get())) {
    tracer_->EmitComplete(
        tracer_->driver_lane(), start, obs::ev::kCleanup, stats->total_ticks,
        {obs::TraceArg::Int("results", stats->result_count),
         obs::TraceArg::Int("segments_read", stats->segments_read),
         obs::TraceArg::Int("bytes_read", stats->bytes_read),
         obs::TraceArg::Int("partitions_cleaned",
                            stats->partitions_cleaned)});
    for (size_t e = 0; e < stats->engine_ticks.size(); ++e) {
      tracer_->EmitComplete(
          static_cast<int>(e), start, obs::ev::kCleanupEngine,
          stats->engine_ticks[e],
          {obs::TraceArg::Int("engine", static_cast<int64_t>(e))});
    }
  }
  return stats;
}

RunResult Topology::Collect(const Network::Stats& network, Tick end,
                            const Histogram& latency) const {
  RunResult result;
  result.throughput = throughput_series_;
  result.engine_memory = memory_series_;
  result.runtime_results = sink_.total();
  result.runtime_latency = latency;
  result.tuples_generated = source().total_emitted();
  result.runtime_end = end;
  result.coordinator = coordinator_->counters();
  result.network = network;
  for (const auto& node : engines_) {
    QueryEngine::Counters ec = node->counters();
    result.spilled_bytes += ec.spilled_bytes;
    result.spill_events += ec.spill_events + ec.forced_spill_events;
    result.engines.push_back(std::move(ec));
    const SpillStore& store = node->spill_store();
    StorageCounters storage;
    storage.segments_written = store.segments_written();
    storage.segments_resident = store.segment_count();
    storage.resident_bytes = store.resident_bytes();
    storage.encoded_bytes = store.total_spilled_bytes();
    storage.raw_bytes = store.total_raw_bytes();
    storage.partial_segments_written = store.partial_segments_written();
    storage.partial_encoded_bytes = store.partial_encoded_bytes();
    storage.partial_raw_bytes = store.partial_raw_bytes();
    result.engine_storage.push_back(storage);
    result.storage.segments_written += storage.segments_written;
    result.storage.segments_resident += storage.segments_resident;
    result.storage.resident_bytes += storage.resident_bytes;
    result.storage.encoded_bytes += storage.encoded_bytes;
    result.storage.raw_bytes += storage.raw_bytes;
    result.storage.partial_segments_written +=
        storage.partial_segments_written;
    result.storage.partial_encoded_bytes += storage.partial_encoded_bytes;
    result.storage.partial_raw_bytes += storage.partial_raw_bytes;
  }
  if (config_.collect_results) {
    result.collected = sink_.collected();
  }
  return result;
}

}  // namespace dcape
