#ifndef DCAPE_RUNTIME_CLUSTER_CONFIG_H_
#define DCAPE_RUNTIME_CLUSTER_CONFIG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cleanup/cleanup.h"
#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/productivity.h"
#include "core/strategy.h"
#include "net/network.h"
#include "operators/select.h"
#include "sim/fault_plan.h"
#include "sim/invariants.h"
#include "storage/spill_store.h"
#include "stream/workload.h"
#include "tuple/projection.h"
#include "tuple/serde.h"

namespace dcape {

/// Full description of one experiment: the simulated cluster, the query
/// workload, and the adaptation strategy under test.
struct ClusterConfig {
  /// Number of query-engine machines (the paper's processors; the
  /// coordinator, stream generator and application server get their own
  /// dedicated nodes, as in §3.1).
  int num_engines = 2;
  /// Number of nodes hosting the split operators (clamped to the stream
  /// count; streams are assigned round-robin). 1 colocates every split
  /// with the generator node, the paper's described deployment.
  int num_split_hosts = 1;
  /// Worker threads of the cleanup phase (see runtime/exec_pool.h).
  /// Results are bit-identical for every value: partitions merge
  /// independently and fold in fixed partition order. 1 = serial.
  int num_threads = 1;
  WorkloadConfig workload;
  /// When non-empty, replay this recorded trace instead of generating the
  /// synthetic workload (workload.num_partitions still sizes the routing
  /// tables; the trace fixes the stream count). See stream/trace.h.
  std::shared_ptr<const std::string> replay_trace;
  /// When non-null, record every emitted tuple into this buffer as a
  /// trace (finalized when the run's cluster is destroyed).
  std::shared_ptr<std::string> record_trace;
  /// Optional post-join projection (group key + aggregate input), applied
  /// consistently by the engines and the cleanup phase — the SELECT line
  /// of the paper's QUERY 1.
  std::optional<ResultProjection> projection;
  /// Optional per-stream WHERE predicates applied before the splits.
  std::vector<SelectPredicate> select_per_stream;
  /// Optional payload truncation before the splits (project away unused
  /// columns).
  std::optional<int> project_payload_to;
  /// When set, the application server additionally folds every result
  /// into a GroupByAggregate with this function (GROUP BY group_key).
  std::optional<AggregateOp> aggregate_op;
  /// Sliding-window join semantics: > 0 bounds every result's member
  /// timestamp span and enables run-time eviction of expired state —
  /// the paper's "infinite streams with finite windows" regime. 0 joins
  /// over the full history (the paper's long-running finite query).
  Tick join_window_ticks = 0;
  /// Initial share of the partitions per engine (must sum to ~1). Empty
  /// means uniform. Partitions are placed in contiguous id blocks, so
  /// "the partitions of engine 0" is a well-defined set for the
  /// fluctuation and per-owner class configs.
  std::vector<double> placement_fractions;

  AdaptationStrategy strategy = AdaptationStrategy::kNoAdaptation;
  SpillConfig spill;
  /// Productivity estimation model for every engine's local controller.
  ProductivityConfig productivity;
  /// Online state restore settings for every engine.
  RestoreConfig restore;
  RelocationConfig relocation;
  ActiveDiskConfig active_disk;

  Network::Config network;
  SpillStore::Config disk;
  CleanupConfig cleanup;
  /// Spill to real files under a temp dir instead of the in-memory
  /// backend.
  bool use_file_backend = false;
  std::string file_backend_prefix = "dcape_spill";
  /// Encoding for spilled / relocated partition groups (tuple/serde.h).
  /// v2 (default) is the compact format; decoders sniff, so either
  /// format reads blobs written by the other.
  SegmentFormat segment_format = SegmentFormat::kV2;
  /// Optional per-engine encoding override (size == num_engines when
  /// non-empty); lets a mixed cluster exercise cross-format relocation.
  std::vector<SegmentFormat> per_engine_segment_format;

  /// Length of the run-time phase.
  Tick run_duration = MinutesToTicks(40);
  /// Sampling period for the memory / throughput time series.
  Tick sample_period = SecondsToTicks(30);
  /// Engines' statistics reporting period toward the coordinator.
  Tick stats_period = SecondsToTicks(5);

  /// Retain all runtime results at the sink (tests only; memory-heavy).
  bool collect_results = false;
  /// Run the cleanup phase after the run-time phase.
  bool run_cleanup = true;

  /// Structured adaptation tracing (obs/trace.h): when on, the cluster
  /// owns a deterministic Tracer, every adaptation decision, relocation
  /// protocol phase, spill/evict/restore, and cleanup pass emits a
  /// virtual-clock-stamped event, and the trace is exportable as Chrome
  /// trace_event JSON (dcape_run --trace-out). Bit-identical for every
  /// `num_threads`; off = zero cost (no tracer is constructed).
  bool trace = false;
  /// Additionally record hot-path data-plane events (per-batch engine
  /// instants). Large traces; off by default.
  bool trace_verbose = false;

  uint64_t seed = 42;

  /// Chaos hooks (sim/). When `fault_plan` is set the network injects
  /// bounded delivery jitter, every engine's disk backend is wrapped in a
  /// sim::FaultyBackend, and engines suffer seeded stalls. When
  /// `invariants` is set the protocol participants report violations of
  /// the relocation/pause/drain invariants into it instead of assuming
  /// them. Both null in production runs — zero overhead.
  std::shared_ptr<sim::FaultPlan> fault_plan;
  std::shared_ptr<sim::InvariantRecorder> invariants;

  /// Validated construction (declared below). ClusterConfig itself
  /// stays an aggregate — `ClusterConfig c; c.num_engines = 4;` — and
  /// the Builder adds range validation and the strategy-consistency
  /// checks the CLI enforces.
  class Builder;
};

/// Validated construction of a ClusterConfig.
///
/// The Builder starts from an aggregate and records which fields were
/// set explicitly (`MarkSet`); `Validate()` then applies (a)
/// unconditional range checks and (b) strategy-consistency checks for
/// the explicitly set fields only — exactly the rules `dcape_run`
/// enforces on its command line, with identical wording (error messages
/// name fields by their canonical CLI flag spelling, e.g. "--theta").
///
///   ClusterConfig c;
///   c.strategy = AdaptationStrategy::kLazyDisk;
///   c.num_engines = 4;
///   c.relocation.theta_r = 0.75;
///   DCAPE_ASSIGN_OR_RETURN(
///       ClusterConfig config,
///       ClusterConfig::Builder(std::move(c)).MarkSet("--theta").Build());
class ClusterConfig::Builder {
 public:
  Builder() = default;
  /// Starts from an existing aggregate (its fields count as defaults,
  /// not as explicitly set).
  explicit Builder(ClusterConfig base) : config_(std::move(base)) {}

  /// Marks a field as explicitly set by its canonical CLI flag spelling
  /// (e.g. "--theta") without changing its value; the CLI parser uses
  /// this to hand its flag bookkeeping to Validate().
  Builder& MarkSet(std::string_view flag);

  /// Range checks plus strategy-consistency checks for explicitly set
  /// fields. OK when the configuration is runnable.
  [[nodiscard]] Status Validate() const;

  /// Validate(), then the finished config.
  [[nodiscard]] StatusOr<ClusterConfig> Build() const;

 private:
  bool IsSet(std::string_view flag) const;

  ClusterConfig config_;
  /// Canonical flag spellings of explicitly set fields.
  std::vector<std::string> set_flags_;
};

/// Places partitions on engines in contiguous id blocks sized by
/// `fractions` (uniform when empty). Returns placement[partition] =
/// engine.
std::vector<EngineId> ComputePlacement(int num_partitions, int num_engines,
                                       const std::vector<double>& fractions);

/// The partitions initially placed on `engine` under `placement`.
std::vector<PartitionId> PartitionsOfEngine(
    const std::vector<EngineId>& placement, EngineId engine);

}  // namespace dcape

#endif  // DCAPE_RUNTIME_CLUSTER_CONFIG_H_
