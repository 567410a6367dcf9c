#ifndef DCAPE_RT_REALTIME_DRIVER_H_
#define DCAPE_RT_REALTIME_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "common/virtual_clock.h"
#include "metrics/histogram.h"
#include "obs/metrics.h"
#include "rt/spsc_transport.h"
#include "rt/wall_clock.h"
#include "runtime/cluster_config.h"
#include "runtime/run_result.h"
#include "runtime/topology.h"

namespace dcape {
namespace rt {

/// Knobs of one realtime run (the wall-clock side; everything about the
/// query, workload, and adaptation comes from the shared ClusterConfig).
struct RealtimeOptions {
  /// Wall-clock length of the generation phase, in seconds.
  int duration_sec = 5;
  /// Target aggregate input rate in tuples/second, realized by pacing
  /// the generator's virtual-tick cursor against the wall clock. 0 =
  /// free-run: the generator emits as fast as the pipeline absorbs
  /// (backpressure is the only brake) — the max-throughput benchmark
  /// mode.
  int64_t rate = 0;
  /// SPSC ring capacity (messages) per directed link.
  size_t link_capacity = kDefaultLinkCapacity;
  /// Drain watchdog: abort if the pipeline has not quiesced this many
  /// wall ms after generation stops.
  int64_t quiesce_timeout_ms = 60 * 1000;
};

/// Wall-clock measurements of one realtime run (the numbers the
/// simulator cannot produce).
struct RealtimeReport {
  /// Wall seconds of the generation phase / of the whole run (incl.
  /// pipeline drain, excl. cleanup).
  double generate_wall_sec = 0;
  double total_wall_sec = 0;
  /// Highest virtual tick the generator emitted. Feed this to a
  /// virtual-clock Cluster as `run_duration` to replay the *identical*
  /// input for the differential oracle check.
  Tick ticks_run = 0;
  int64_t tuples_generated = 0;
  int64_t runtime_results = 0;
  /// Sustained rates over the generation phase.
  double tuples_per_sec = 0;
  double results_per_sec = 0;
  /// End-to-end result latency in microseconds: sink arrival minus the
  /// wall-clock emission stamp of the input batch that produced the
  /// result. Covers direct-path results (spill/restore/cleanup results
  /// have no single emission time and are excluded).
  Histogram latency_us;
  /// Producer park episodes across all links (backpressure pressure
  /// gauge; 0 means the pipeline kept up).
  int64_t backpressure_parks = 0;
  int engine_threads = 0;
  /// All node threads: engines + split hosts + coordinator + sink +
  /// generator.
  int total_threads = 0;
};

/// The free-running realtime driver: the same node set the deterministic
/// simulator runs (a Topology: QueryEngine, SplitHost, GlobalCoordinator,
/// GeneratorNode, union + sink), but scheduled with one real thread per
/// node over bounded lock-free SPSC links instead of the tick-stepped
/// simulated network, and `now` = wall milliseconds since run start (one
/// tick == one wall ms, the simulator's own tick definition) so every
/// periodic timer in the engines and the coordinator fires on a real
/// steady-clock cadence.
///
/// The deterministic simulator remains the correctness oracle: the
/// generator paces a virtual-tick cursor, so the emitted tuple set for
/// `ticks_run` ticks is bit-identical to a virtual-clock run of the same
/// config with `run_duration = ticks_run` — and the final joined output
/// (runtime ∪ cleanup, as a multiset) must match it exactly, whatever
/// the wall-clock timing of spills and relocations was. docs/REALTIME.md
/// gives the full argument.
///
/// Restrictions (enforced here and in flag validation): no fault
/// injection, no invariant recorder, no sliding window (window eviction
/// compares tick-domain timestamps against the wall clock), no
/// structured-trace export contract.
class RealtimeDriver {
 public:
  RealtimeDriver(const ClusterConfig& config, const RealtimeOptions& options);
  ~RealtimeDriver();

  RealtimeDriver(const RealtimeDriver&) = delete;
  RealtimeDriver& operator=(const RealtimeDriver&) = delete;

  /// Runs the full experiment: paced/free-run generation, pipeline
  /// drain, thread join, then (if configured) the cleanup phase.
  RunResult Run();

  /// Wall-clock measurements (valid after Run).
  const RealtimeReport& report() const { return report_; }
  const obs::MetricsRegistry& metrics() const { return topology_.metrics(); }
  const SpscTransport::Stats transport_stats() const {
    return transport_.TotalStats();
  }

 private:
  enum class Phase : int { kRunning = 0, kDraining = 1, kStopped = 2 };

  void EngineLoop(EngineId e);
  void SplitHostLoop(int h);
  void CoordinatorLoop();
  void SinkLoop();
  void GeneratorLoop();
  void SamplerLoop();
  /// Blocks until the pipeline is quiescent after generation stops.
  void AwaitQuiescence();
  /// Sink hook: wall-clock latency and the published result count.
  void OnResultBatch(const ResultBatch& batch);

  RealtimeOptions options_;
  /// Ticks per wall second the generator paces at (rate mode); 0 in
  /// free-run.
  double ticks_per_sec_ = 0;

  WallClock clock_;
  SpscTransport transport_;
  Topology topology_;

  std::atomic<Phase> phase_{Phase::kRunning};
  /// Highest tick emitted: written by the generator thread as it
  /// finishes, read by Run (the oracle's replay range) after joining it.
  Tick ticks_emitted_ = 0;
  /// Cumulative results at the sink (sink thread publishes, sampler
  /// reads).
  std::atomic<int64_t> results_total_{0};
  /// Per-engine published state (engine threads publish, sampler and
  /// the drain check read).
  std::vector<std::unique_ptr<std::atomic<int64_t>>> published_state_bytes_;
  std::vector<std::unique_ptr<std::atomic<bool>>> published_idle_;
  /// Per-host published buffered-tuple count (drain check).
  std::vector<std::unique_ptr<std::atomic<int64_t>>> published_buffered_;
  std::atomic<bool> coordinator_quiet_{true};

  /// Sink-thread-owned latency measures: microseconds into the registry
  /// histogram (authoritative), milliseconds into the RunResult slot.
  Histogram* latency_us_ = nullptr;  // owned by the topology's registry
  Histogram latency_ms_;

  std::vector<std::thread> threads_;  // engines, hosts, coord, sink, sampler
  std::thread generator_thread_;
  RealtimeReport report_;
};

}  // namespace rt
}  // namespace dcape

#endif  // DCAPE_RT_REALTIME_DRIVER_H_
