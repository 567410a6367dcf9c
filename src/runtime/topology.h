#ifndef DCAPE_RUNTIME_TOPOLOGY_H_
#define DCAPE_RUNTIME_TOPOLOGY_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "cleanup/cleanup.h"
#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/global_coordinator.h"
#include "engine/query_engine.h"
#include "metrics/histogram.h"
#include "metrics/time_series.h"
#include "net/message.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/aggregate.h"
#include "operators/sink.h"
#include "runtime/cluster_config.h"
#include "runtime/generator_node.h"
#include "runtime/run_result.h"
#include "runtime/split_host.h"

namespace dcape {

/// The D-CAPE node set (paper Fig. 4), built once for either driver: N
/// query engines, the global coordinator, the stream-generator node
/// with its split hosts, and the application server (union + sink, plus
/// the optional grouped aggregate), all wired over a driver-supplied
/// Transport. The topology also owns the observability plane (metrics
/// registry, tracer) and the throughput/memory series, and turns the
/// nodes' counters into a RunResult.
///
/// It never advances time and never reads a clock: a driver schedules
/// the nodes (Cluster steps them on the virtual clock, rt::RealtimeDriver
/// runs one thread per node on the wall clock) and hands in what only
/// it measures.
///
/// Node addressing convention: engine e is node e; then the coordinator,
/// the application server (sink), the stream generator, and the split
/// hosts occupy the following ids.
class Topology {
 public:
  /// Runs on the sink's delivery path for every result batch, before
  /// the batch is consumed (a driver's own measurements, e.g. wall-clock
  /// latency).
  using SinkHook = std::function<void(const ResultBatch& batch)>;

  /// Builds and wires every node over `transport`, which must outlive
  /// the topology and span NumNodes(config) ids. `driver_lane` names the
  /// tracer's driver lane.
  Topology(const ClusterConfig& config, Transport* transport,
           std::string_view driver_lane, SinkHook sink_hook = nullptr);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Size of the node-id space `config` needs.
  static int NumNodes(const ClusterConfig& config);

  /// Appends one point to the throughput series (`results` so far) and
  /// to every engine's memory series (`state_bytes(e)`).
  template <typename StateBytes>
  void AddSample(Tick now, int64_t results, StateBytes state_bytes) {
    throughput_series_.Add(now, static_cast<double>(results));
    for (EngineId e = 0; e < num_engines(); ++e) {
      memory_series_[static_cast<size_t>(e)].Add(
          now, static_cast<double>(state_bytes(e)));
    }
  }

  /// Runs the cleanup phase over the engines' current disks and states
  /// on a pool of `config().num_threads` workers, sets the cleanup.*
  /// gauges, and (when tracing) emits the cleanup spans starting at
  /// `start`.
  [[nodiscard]] StatusOr<CleanupStats> RunCleanup(Tick start);

  /// Builds the RunResult from the nodes, the registry, and the series,
  /// plus what only the driver measures: its transport's traffic, the
  /// tick the run-time phase ended, and the result latency.
  RunResult Collect(const Network::Stats& network, Tick end,
                    const Histogram& latency) const;

  /// The normalized configuration the nodes were built from.
  const ClusterConfig& config() const { return config_; }
  const std::vector<EngineId>& placement() const { return placement_; }

  int num_engines() const { return config_.num_engines; }
  QueryEngine& engine(EngineId e) { return *engines_[static_cast<size_t>(e)]; }
  const QueryEngine& engine(EngineId e) const {
    return *engines_[static_cast<size_t>(e)];
  }
  GlobalCoordinator& coordinator() { return *coordinator_; }
  const GlobalCoordinator& coordinator() const { return *coordinator_; }
  int num_split_hosts() const { return num_hosts_; }
  SplitHost& split_host(int host) {
    return *split_hosts_[static_cast<size_t>(host)];
  }
  const SplitHost& split_host(int host) const {
    return *split_hosts_[static_cast<size_t>(host)];
  }
  GeneratorNode& generator() { return *generator_; }
  const InputSource& source() const { return generator_->source(); }
  ResultSink& sink() { return sink_; }
  const ResultSink& sink() const { return sink_; }
  GroupByAggregate* aggregate() { return aggregate_.get(); }

  NodeId coordinator_node() const { return coordinator_node_; }
  NodeId sink_node() const { return sink_node_; }
  NodeId generator_node() const { return generator_node_; }
  NodeId split_host_node(int host) const { return generator_node_ + 1 + host; }

  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// Null unless config().trace.
  obs::Tracer* tracer() const { return tracer_.get(); }

 private:
  ClusterConfig config_;
  int num_hosts_;
  NodeId coordinator_node_;
  NodeId sink_node_;
  NodeId generator_node_;
  /// Declared before the engines and the coordinator, whose metric
  /// cells point into it (and are therefore destroyed first).
  obs::MetricsRegistry metrics_;
  /// Lanes = every node + one driver lane.
  std::unique_ptr<obs::Tracer> tracer_;
  std::vector<EngineId> placement_;
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  std::unique_ptr<GlobalCoordinator> coordinator_;
  std::vector<std::unique_ptr<SplitHost>> split_hosts_;
  std::unique_ptr<GeneratorNode> generator_;
  ResultSink sink_;
  std::unique_ptr<GroupByAggregate> aggregate_;
  SinkHook sink_hook_;
  /// cleanup.* gauges, registered on the first RunCleanup (streaming
  /// merge observability).
  obs::Gauge* cleanup_peak_gauge_ = nullptr;
  obs::Gauge* cleanup_blocks_gauge_ = nullptr;
  TimeSeries throughput_series_;
  std::vector<TimeSeries> memory_series_;
};

}  // namespace dcape

#endif  // DCAPE_RUNTIME_TOPOLOGY_H_
