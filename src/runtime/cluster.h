#ifndef DCAPE_RUNTIME_CLUSTER_H_
#define DCAPE_RUNTIME_CLUSTER_H_

#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/global_coordinator.h"
#include "engine/query_engine.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/aggregate.h"
#include "operators/sink.h"
#include "runtime/cluster_config.h"
#include "runtime/run_result.h"
#include "runtime/split_host.h"
#include "runtime/topology.h"
#include "stream/input_source.h"

namespace dcape {

/// The deterministic simulator driver: the D-CAPE node set (a Topology,
/// paper Fig. 4) wired over the simulated network and stepped tick by
/// tick on the virtual clock, on the calling thread. Node ids follow the
/// Topology convention.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs the full experiment: run-time phase of `run_duration`, pipeline
  /// drain, then (if configured) the cleanup phase. Returns all series
  /// and counters.
  RunResult Run();

  /// Advances virtual time to `end` with the generator on. May be called
  /// repeatedly (tests drive phases manually).
  void RunUntil(Tick end);

  /// Stops generation and advances time until the pipeline is quiescent
  /// (no queued messages, no queued batches, no buffered tuples).
  void Drain();

  /// Runs the cleanup phase over the engines' current disks and states,
  /// on `config.num_threads` workers.
  [[nodiscard]] StatusOr<CleanupStats> RunCleanup();

  /// Builds the RunResult from the current series/counters (Run() does
  /// this automatically).
  RunResult Collect();

  /// The initial partition placement this cluster uses; also available
  /// statically so benches can derive per-owner workload classes before
  /// construction.
  static std::vector<EngineId> PlacementFor(const ClusterConfig& config);

  QueryEngine& engine(EngineId e) { return topology_.engine(e); }
  const QueryEngine& engine(EngineId e) const { return topology_.engine(e); }
  int num_engines() const { return topology_.num_engines(); }
  GlobalCoordinator& coordinator() { return topology_.coordinator(); }
  /// The first split host (hosts every stream when num_split_hosts == 1).
  SplitHost& split_host() { return topology_.split_host(0); }
  SplitHost& split_host(int host) { return topology_.split_host(host); }
  int num_split_hosts() const { return topology_.num_split_hosts(); }
  /// The split host carrying `stream`'s split operator.
  SplitHost& split_host_for_stream(StreamId stream) {
    return topology_.split_host(stream % topology_.num_split_hosts());
  }
  /// The input source feeding the cluster (generator or trace).
  const InputSource& source() const { return topology_.source(); }
  ResultSink& sink() { return topology_.sink(); }
  /// The application server's grouped aggregate (null unless
  /// `aggregate_op` was configured). Note: runtime results only; fold the
  /// cleanup results in with ConsumeAll to get the final answer.
  GroupByAggregate* aggregate() { return topology_.aggregate(); }
  Network& network() { return network_; }
  Tick now() const { return clock_.now(); }
  const std::vector<EngineId>& placement() const {
    return topology_.placement();
  }
  const ClusterConfig& config() const { return topology_.config(); }

  NodeId coordinator_node() const { return topology_.coordinator_node(); }
  NodeId sink_node() const { return topology_.sink_node(); }
  NodeId generator_node() const { return topology_.generator_node(); }

  /// The unified metrics registry: every engine/coordinator/storage
  /// counter in the cluster lives here (single source for RunResult and
  /// the trace's sampled counter events).
  const obs::MetricsRegistry& metrics() const { return topology_.metrics(); }
  /// The structured trace, or null when `config.trace` is off.
  const obs::Tracer* tracer() const { return topology_.tracer(); }

 private:
  void StepTick(Tick now, bool generate);
  void SampleIfDue(Tick now, bool force = false);
  /// True when the whole pipeline is idle: no queued messages, no
  /// buffered split tuples, no busy/backlogged engines.
  bool Quiescent(Tick now) const;

  /// Declared before the topology, whose nodes hold a pointer to it.
  Network network_;
  Topology topology_;
  VirtualClock clock_;
  Tick next_sample_ = 0;
  bool draining_ = false;
};

}  // namespace dcape

#endif  // DCAPE_RUNTIME_CLUSTER_H_
