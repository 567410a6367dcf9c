#ifndef DCAPE_ENGINE_QUERY_ENGINE_H_
#define DCAPE_ENGINE_QUERY_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/local_controller.h"
#include "core/strategy.h"
#include "net/message.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/mjoin.h"
#include "storage/disk_backend.h"
#include "storage/spill_store.h"

namespace dcape {

namespace sim {
class InvariantRecorder;
}  // namespace sim

/// Execution modes of a query engine (paper Table 2).
enum class EngineMode {
  kNormal,
  kStateSpill,       // ss_mode: spilling states to local disk
  kStateRelocation,  // sr_mode: participating in a relocation
};

/// Configuration of one query engine (machine).
struct EngineConfig {
  EngineId engine_id = 0;
  /// Network address; by cluster convention engines use node_id ==
  /// engine_id.
  NodeId node_id = 0;
  NodeId coordinator_node = kInvalidNode;
  NodeId sink_node = kInvalidNode;
  int num_streams = 3;
  /// Number of split-host nodes; the engine expects one drain marker per
  /// host before extracting relocating state.
  int num_split_hosts = 1;
  AdaptationStrategy strategy = AdaptationStrategy::kNoAdaptation;
  SpillConfig spill;
  /// Productivity estimation model used by the local controller.
  ProductivityConfig productivity;
  /// Online state restore (merge disk generations back when memory is
  /// available).
  RestoreConfig restore;
  /// Sliding-window join semantics: > 0 bounds the timestamp span of any
  /// result's members and lets the engine evict expired state.
  Tick window_ticks = 0;
  /// How often expired state is evicted (only with window_ticks > 0).
  Tick evict_period = SecondsToTicks(10);
  /// Statistics reporting period toward the coordinator (sr_timer's data
  /// source).
  Tick stats_period = SecondsToTicks(5);
  /// Optional post-join projection (group key + aggregate input).
  std::optional<ResultProjection> projection;
  /// Encoding for spilled / relocated partition groups (tuple/serde.h).
  SegmentFormat segment_format = SegmentFormat::kV2;
  uint64_t seed = 1;
  /// Chaos-harness invariant sink (unowned; null in production). When
  /// set, the engine reports protocol violations — e.g. a tuple arriving
  /// for a partition whose state was relocated away — instead of
  /// silently producing wrong results.
  sim::InvariantRecorder* invariants = nullptr;
  /// Unified metrics registry (unowned). The engine registers its
  /// engine.* and storage.* cells there; when null it owns a private
  /// registry (standalone use in unit tests).
  obs::MetricsRegistry* metrics = nullptr;
  /// Structured tracer (unowned; null = tracing disabled). The engine
  /// emits on lane `node_id`.
  obs::Tracer* tracer = nullptr;
};

/// One query engine of the distributed architecture (paper Fig. 4): hosts
/// an instance of the partitioned m-way join, executes its share of the
/// input, reports lightweight statistics to the global coordinator, and
/// carries out the engine side of both adaptations through its local
/// adaptation controller.
///
/// Disk I/O keeps the engine busy in virtual time: while `busy_until_` is
/// in the future, arriving tuple batches queue and are processed when the
/// engine frees up — which is what dents the run-time throughput right
/// after a spill (visible in the paper's Fig. 13).
class QueryEngine {
 public:
  /// Cumulative event counters for experiment summaries. This is a
  /// *snapshot view*: the authoritative cells live in the metrics
  /// registry (obs/metrics.h) and `counters()` materializes them on
  /// demand, so existing call sites keep working unchanged.
  struct Counters {
    int64_t tuples_processed = 0;
    int64_t results_produced = 0;
    int64_t spill_events = 0;
    int64_t forced_spill_events = 0;
    int64_t spilled_bytes = 0;
    int64_t relocations_out = 0;
    int64_t relocations_in = 0;
    int64_t bytes_relocated_out = 0;
    int64_t bytes_relocated_in = 0;
    /// Online-restore activity (RestoreConfig).
    int64_t restored_segments = 0;
    int64_t restored_bytes = 0;
    int64_t restored_results = 0;
    /// Window-eviction activity (window_ticks > 0).
    int64_t evicted_tuples = 0;
    int64_t eviction_segments = 0;
    /// Spill / eviction writes that failed and were recovered by
    /// reinstalling the extracted state (transient disk faults).
    int64_t spill_write_failures = 0;
    /// Gradual-spill plane: groups spilled partially (hot residue kept
    /// resident), recursive sub-partition splits performed, probes on
    /// disk-backed partitions that found no resident match, and the
    /// longest single spill stall in virtual ticks (the latency-cliff
    /// gauge the skew sweep tracks).
    int64_t partial_spill_groups = 0;
    int64_t subpartition_splits = 0;
    int64_t cold_probe_misses = 0;
    int64_t max_spill_stall_ticks = 0;
    /// High-water marks of the join state's tracked bytes and of its
    /// resident bytes (key indexes plus arena capacity).
    int64_t peak_state_tracked_bytes = 0;
    int64_t peak_state_resident_bytes = 0;
    /// Tuples processed per stream (size == num_streams) — the chaos
    /// harness's per-stream accounting diffs this against the oracle.
    std::vector<int64_t> tuples_per_stream;
  };

  QueryEngine(const EngineConfig& config, Transport* network,
              const SpillStore::Config& disk_config,
              std::unique_ptr<DiskBackend> disk_backend);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Network delivery callback; register with
  /// `network->RegisterNode(node_id, ...)` bound to this method.
  void OnMessage(Tick now, const Message& message);

  /// Data-plane fast path: same semantics as a kTupleBatch OnMessage,
  /// but takes ownership of the batch so queueing never copies tuples.
  void OnTupleBatch(Tick now, TupleBatch&& batch);

  /// Per-tick housekeeping: drain queued batches when free, run the
  /// ss_timer spill check, emit the periodic stats report.
  void OnTick(Tick now);

  /// True when no input is queued and no disk I/O is in progress — used
  /// by the driver to detect quiescence at end of run.
  bool Idle(Tick now) const {
    return pending_batches_.empty() && now >= busy_until_;
  }

  /// Chaos hook: freezes the engine for `ticks` virtual ms (models a GC
  /// pause / CPU steal). Arriving batches queue and drain afterwards.
  void InjectStall(Tick now, Tick ticks) {
    busy_until_ = std::max(busy_until_, now) + ticks;
  }

  /// Batches queued behind disk I/O (observability for the harness).
  int64_t pending_batch_count() const {
    return static_cast<int64_t>(pending_batches_.size());
  }
  /// Sender-side relocations not yet shipped (0 at quiescence).
  int64_t outgoing_relocation_count() const {
    return static_cast<int64_t>(outgoing_.size());
  }

  MJoin& mjoin() { return mjoin_; }
  const MJoin& mjoin() const { return mjoin_; }
  const SpillStore& spill_store() const { return spill_store_; }
  /// Snapshot of the registry-backed counters (by value; `const auto&`
  /// call sites bind to the temporary).
  Counters counters() const;
  const EngineConfig& config() const { return config_; }
  EngineMode mode() const { return mode_; }
  /// Tracked memory-resident state bytes (the quantity all thresholds and
  /// the coordinator's decisions are based on).
  int64_t state_bytes() const { return mjoin_.state().total_bytes(); }

 private:
  /// One in-flight relocation in which this engine is the sender.
  struct OutgoingRelocation {
    EngineId receiver = 0;
    std::vector<PartitionId> partitions;
    bool transfer_authorized = false;
    int drain_markers = 0;
  };

  /// Joins the batch's tuples; the join state copies what it keeps.
  void ProcessBatch(Tick now, const TupleBatch& batch);
  void DrainPending(Tick now);
  /// Executes a gradual spill plan, updating counters and busy time.
  /// `forced` marks coordinator-initiated spills (active-disk).
  void DoSpill(Tick now, const std::vector<SpillRequest>& plan, bool forced);
  /// Per-segment size budget for recursive sub-partitioning: half the
  /// memory threshold, so any single segment can be restored without
  /// re-tripping the spill check.
  int64_t MaxPieceBytes() const {
    return std::max<int64_t>(1, config_.spill.memory_threshold_bytes / 2);
  }
  /// Attempts one online restore (oldest fitting, unlocked generation).
  void MaybeRestore(Tick now);
  /// Evicts window-expired tuples; preserves them as eviction
  /// generations when disk generations exist for the partition.
  void EvictExpired(Tick now);
  /// Completes the sender side of a relocation once both the transfer
  /// authorization and all drain markers have arrived.
  void MaybeFinishOutgoing(Tick now, int64_t relocation_id);

  /// The engine's trace lane is its network node id.
  int lane() const { return static_cast<int>(config_.node_id); }

  EngineConfig config_;
  Transport* network_;
  /// Private registry when the config did not supply one; declared (and
  /// therefore constructed) before spill_store_ and the cells below,
  /// which point into it.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
  SpillStore spill_store_;
  MJoin mjoin_;
  LocalController controller_;
  PeriodicTimer stats_timer_;
  PeriodicTimer restore_timer_;
  PeriodicTimer evict_timer_;
  EngineMode mode_ = EngineMode::kNormal;
  Tick busy_until_ = 0;
  std::deque<TupleBatch> pending_batches_;
  std::map<int64_t, OutgoingRelocation> outgoing_;
  /// Partitions whose state this engine shipped away and has not since
  /// received back — maintained only when config_.invariants is set, to
  /// flag tuples that arrive at a non-owner.
  std::set<PartitionId> relocated_away_;
  int64_t outputs_in_window_ = 0;
  /// Registry-owned cells backing the Counters snapshot (registered in
  /// the constructor, entity = engine id).
  struct Cells {
    obs::Counter* tuples_processed;
    obs::Counter* results_produced;
    obs::Counter* spill_events;
    obs::Counter* forced_spill_events;
    obs::Counter* spilled_bytes;
    obs::Counter* relocations_out;
    obs::Counter* relocations_in;
    obs::Counter* bytes_relocated_out;
    obs::Counter* bytes_relocated_in;
    obs::Counter* restored_segments;
    obs::Counter* restored_bytes;
    obs::Counter* restored_results;
    obs::Counter* evicted_tuples;
    obs::Counter* eviction_segments;
    obs::Counter* spill_write_failures;
    obs::Counter* busy_io_ticks;
    obs::Counter* spill_io_ticks;
    /// Gradual-spill plane.
    obs::Counter* partial_spill_groups;
    obs::Counter* subpartition_splits;
    obs::Gauge* cold_probe_misses;
    obs::Gauge* max_spill_stall_ticks;
    obs::Gauge* state_tracked_bytes;
    obs::Gauge* state_resident_bytes;
    /// Indexed by stream id.
    std::vector<obs::Counter*> tuples_per_stream;
  };
  Cells c_;
};

}  // namespace dcape

#endif  // DCAPE_ENGINE_QUERY_ENGINE_H_
