#ifndef DCAPE_OBS_TAXONOMY_H_
#define DCAPE_OBS_TAXONOMY_H_

#include <cstddef>

namespace dcape {
namespace obs {

/// The registered trace-event taxonomy (namespace `ev`) and metric names
/// (namespace `m`).
///
/// Every event handed to the tracer and every metric registered with the
/// registry MUST name itself with one of these compile-time constants —
/// never a dynamically built string. Two tools depend on that:
///
///   * trace diffing: the determinism contract ("`--trace-out` output is
///     bit-identical across `--threads=N`") is only checkable if event
///     names are stable identities, and
///   * `tools/dcape_lint.py`'s `trace-name` check, which rejects any
///     Emit/Begin/End call whose name argument is not an `ev::k*` /
///     `m::k*` constant, and `tools/check_trace.py`, which validates
///     exported JSON against this header.
///
/// Naming convention: `<subsystem>.<action>` with optional
/// `.phase.<phase>` for protocol-phase spans. Add new names here (and to
/// the table in docs/OBSERVABILITY.md); both checkers parse this header.
namespace ev {

// --- 8-step relocation protocol (coordinator lane; async spans keyed by
// relocation id). The outer `relocation` span covers start -> complete /
// abort; each phase gets its own nested async span.
inline constexpr char kRelocation[] = "relocation";
inline constexpr char kRelocPhaseCompute[] = "relocation.phase.compute_partitions";
inline constexpr char kRelocPhasePause[] = "relocation.phase.pause";
inline constexpr char kRelocPhaseTransfer[] = "relocation.phase.transfer";
inline constexpr char kRelocPhaseRouting[] = "relocation.phase.update_routing";
/// Decision instant: the §4 imbalance rule fired (args carry the
/// statistics that triggered it).
inline constexpr char kRelocDecide[] = "relocation.decide";
/// Abort instant (sender had no movable groups).
inline constexpr char kRelocAbort[] = "relocation.abort";

// --- Relocation participants (engine / split-host lanes, keyed by
// relocation id).
/// Sender shipped its extracted state (args: groups, bytes, receiver).
inline constexpr char kRelocShip[] = "relocation.ship";
/// One partition group leaving the sender (args: partition, bytes).
inline constexpr char kRelocShipGroup[] = "relocation.ship_group";
/// Receiver installed the transferred state (args: bytes).
inline constexpr char kRelocInstall[] = "relocation.install";
/// One partition group installed at the receiver (args: partition).
inline constexpr char kRelocInstallGroup[] = "relocation.install_group";
/// A split host paused routing for the moving partitions.
inline constexpr char kRelocPauseSplit[] = "relocation.pause_split";
/// A split host re-routed and flushed its buffered tuples (args:
/// buffered).
inline constexpr char kRelocFlushSplit[] = "relocation.flush_split";

// --- Spill / evict / restore lifecycle (engine lanes; complete spans
// whose duration is the virtual I/O cost).
inline constexpr char kSpill[] = "engine.spill";
/// Recursive sub-partition split instant during a gradual spill (args:
/// partitions affected, segments emitted, max depth reached).
inline constexpr char kSpillSplit[] = "engine.spill_split";
inline constexpr char kEvict[] = "engine.evict";
inline constexpr char kRestore[] = "engine.restore";
/// Active-disk decision instant at the coordinator (args carry the
/// productivity statistics that triggered the forced spill).
inline constexpr char kForceSpillDecide[] = "active_disk.force_spill";

// --- Per-operator cost (engine lanes).
/// One processed tuple batch (verbose tracing only — hot path).
inline constexpr char kBatch[] = "engine.batch";

// --- Cleanup phase (driver lane; complete spans in virtual time).
inline constexpr char kCleanup[] = "cleanup.run";
inline constexpr char kCleanupEngine[] = "cleanup.engine";

// --- Sampled counters (Chrome "C" events, one per sample period).
inline constexpr char kStateBytes[] = "engine.state_bytes";
inline constexpr char kSinkResults[] = "sink.results";
inline constexpr char kDiskResidentBytes[] = "engine.disk_resident_bytes";

}  // namespace ev

/// Metric names for the registry. Entity is the engine id (or
/// MetricsRegistry::kCluster for cluster-wide metrics); `index` carries a
/// second dimension where needed (per-stream counters).
namespace m {

// Engine data plane.
inline constexpr char kTuplesProcessed[] = "engine.tuples_processed";
inline constexpr char kResultsProduced[] = "engine.results_produced";
inline constexpr char kTuplesPerStream[] = "engine.tuples_per_stream";
/// Virtual ticks the engine spent busy on disk I/O (spill/evict/restore).
inline constexpr char kBusyIoTicks[] = "engine.busy_io_ticks";

// Spill lifecycle.
inline constexpr char kSpillEvents[] = "engine.spill_events";
inline constexpr char kForcedSpillEvents[] = "engine.forced_spill_events";
inline constexpr char kSpilledBytes[] = "engine.spilled_bytes";
inline constexpr char kSpillWriteFailures[] = "engine.spill_write_failures";
inline constexpr char kSpillIoTicks[] = "engine.spill_io_ticks";
// Gradual (bucket-granular) spill plane.
/// Groups spilled partially — cold keys to disk, hot residue resident.
inline constexpr char kPartialSpillGroups[] = "engine.partial_spill_groups";
/// Recursive sub-partition splits performed (extra segments beyond one
/// per extracted cold set).
inline constexpr char kSubpartitionSplits[] = "engine.subpartition_splits";
/// Probes on disk-backed partitions that found no resident match.
inline constexpr char kColdProbeMisses[] = "engine.cold_probe_misses";
/// Longest single spill stall (virtual ticks) — the latency-cliff gauge
/// the skew sweep tracks.
inline constexpr char kMaxSpillStallTicks[] = "engine.max_spill_stall_ticks";

// Join-state memory (high-water marks over the run).
/// Peak tracked state bytes — the figure spill and relocation compare
/// against their thresholds (StateManager::peak_bytes).
inline constexpr char kStateTrackedBytes[] = "engine.state_tracked_bytes";
/// Peak resident state bytes: the groups' key indexes plus arena
/// capacity (StateManager::peak_resident_bytes). Its gap to the tracked
/// peak is the layout's overhead.
inline constexpr char kStateResidentBytes[] = "engine.state_resident_bytes";

// Relocation, engine side.
inline constexpr char kRelocationsOut[] = "engine.relocations_out";
inline constexpr char kRelocationsIn[] = "engine.relocations_in";
inline constexpr char kBytesRelocatedOut[] = "engine.bytes_relocated_out";
inline constexpr char kBytesRelocatedIn[] = "engine.bytes_relocated_in";

// Online restore.
inline constexpr char kRestoredSegments[] = "engine.restored_segments";
inline constexpr char kRestoredBytes[] = "engine.restored_bytes";
inline constexpr char kRestoredResults[] = "engine.restored_results";

// Window eviction.
inline constexpr char kEvictedTuples[] = "engine.evicted_tuples";
inline constexpr char kEvictionSegments[] = "engine.eviction_segments";

// Storage plane (spill store, per engine).
inline constexpr char kSegmentsWritten[] = "storage.segments_written";
inline constexpr char kEncodedBytes[] = "storage.encoded_bytes";
inline constexpr char kRawBytes[] = "storage.raw_bytes";
inline constexpr char kResidentBytes[] = "storage.resident_bytes";
/// Partial-generation accounting (bucket-granular spills), kept apart
/// from the whole-group figures so resident vs spilled bytes per group
/// stay interpretable in `.storage.csv`.
inline constexpr char kPartialSegmentsWritten[] =
    "storage.partial_segments_written";
inline constexpr char kPartialEncodedBytes[] = "storage.partial_encoded_bytes";
inline constexpr char kPartialRawBytes[] = "storage.partial_raw_bytes";

// Realtime plane (wall-clock driver only; absent from simulator runs).
/// End-to-end result latency in microseconds: sink arrival wall time
/// minus the emission stamp of the input batch that produced it.
inline constexpr char kRtLatencyUs[] = "rt.latency_us";

// Cleanup phase (cluster-wide; set once after the cleanup run).
/// High-water mark of tracked cleanup-owned bytes in stream mode
/// (blocks being decoded, decode windows, current-key member lists).
/// Interleaving-dependent — observability only.
inline constexpr char kCleanupPeakResidentBytes[] =
    "cleanup.peak_resident_bytes";
/// Blocks the streaming cleanup read from disk (deterministic).
inline constexpr char kCleanupBlocksRead[] = "cleanup.blocks_read";

// Coordinator decisions (cluster-wide).
inline constexpr char kRelocationsStarted[] = "coordinator.relocations_started";
inline constexpr char kRelocationsCompleted[] =
    "coordinator.relocations_completed";
inline constexpr char kRelocationsAborted[] =
    "coordinator.relocations_aborted";
inline constexpr char kBytesRelocated[] = "coordinator.bytes_relocated";
inline constexpr char kForcedSpills[] = "coordinator.forced_spills";
inline constexpr char kForcedSpillBytes[] = "coordinator.forced_spill_bytes";

}  // namespace m

/// Every registered trace-event name, for schema checks and tests.
/// (tools/check_trace.py re-parses the header instead; this table keeps
/// C++ tests in sync without file I/O.)
inline constexpr const char* kAllEventNames[] = {
    ev::kRelocation,       ev::kRelocPhaseCompute, ev::kRelocPhasePause,
    ev::kRelocPhaseTransfer, ev::kRelocPhaseRouting, ev::kRelocDecide,
    ev::kRelocAbort,       ev::kRelocShip,         ev::kRelocShipGroup,
    ev::kRelocInstall,     ev::kRelocInstallGroup, ev::kRelocPauseSplit,
    ev::kRelocFlushSplit,  ev::kSpill,             ev::kSpillSplit,
    ev::kEvict,
    ev::kRestore,          ev::kForceSpillDecide,  ev::kBatch,
    ev::kCleanup,          ev::kCleanupEngine,     ev::kStateBytes,
    ev::kSinkResults,      ev::kDiskResidentBytes,
};
inline constexpr size_t kNumEventNames =
    sizeof(kAllEventNames) / sizeof(kAllEventNames[0]);

}  // namespace obs
}  // namespace dcape

#endif  // DCAPE_OBS_TAXONOMY_H_
