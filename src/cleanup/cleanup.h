#ifndef DCAPE_CLEANUP_CLEANUP_H_
#define DCAPE_CLEANUP_CLEANUP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "state/state_manager.h"
#include "storage/spill_store.h"
#include "tuple/projection.h"
#include "tuple/tuple.h"

namespace dcape {

class ExecPool;

/// Cost model and options for the cleanup phase.
struct CleanupConfig {
  /// Post-join projection; must match the runtime engines' projection so
  /// cleanup results carry the same (group_key, agg_value).
  std::optional<ResultProjection> projection;
  /// Sliding-window bound on member timestamp spans; must match the
  /// engines' window. 0 = unbounded.
  Tick window_ticks = 0;
  /// Join CPU during cleanup: results generated per virtual tick.
  int64_t results_per_tick = 1000;
  /// Bandwidth for fetching another engine's disk generations to the
  /// partition's cleanup home (bytes per tick).
  int64_t network_bytes_per_tick = 125000;
  /// Retain the produced results (tests / small runs). Counting always
  /// happens.
  bool collect_results = true;
  /// Block size of the streaming cursors. Each open (generation, stream)
  /// cursor keeps at most two blocks in flight.
  int64_t block_bytes = 64 * 1024;
  /// Optional streaming result sink: called once per produced result as
  /// the merge emits it, without accumulating it anywhere — with
  /// `collect_results` off this is the O(1)-memory consumption path.
  /// Called from pool lanes (serialized by an internal mutex); under a
  /// pool, results of different partitions interleave in completion
  /// order, so sinks that need the deterministic order must either run
  /// serially or be order-insensitive (counting, hashing, spooling to
  /// per-partition files).
  std::function<void(const JoinResult&)> result_sink;
};

/// Outcome of the cleanup phase.
struct CleanupStats {
  int64_t result_count = 0;
  /// Wall-clock of the cleanup: engines clean their partitions in
  /// parallel, so this is the maximum per-engine busy time — which is how
  /// the paper's Fig. 12 cleanup comparison (1600 s concentrated vs 400 s
  /// spread) arises.
  Tick total_ticks = 0;
  /// Busy virtual time per engine.
  std::vector<Tick> engine_ticks;
  int64_t segments_read = 0;
  int64_t bytes_read = 0;
  /// Partitions that actually had missing results to produce.
  int64_t partitions_cleaned = 0;
  /// Produced results, when `collect_results` is set.
  std::vector<JoinResult> results;

  // Streaming-merge accounting.
  /// Block prefetches issued. A pure function of the segment layouts
  /// and block size — deterministic across thread counts.
  int64_t blocks_prefetched = 0;
  /// Block prefetches that landed. Equals blocks_prefetched at
  /// quiescence (the balanced-prefetch invariant the chaos harness
  /// checks).
  int64_t blocks_completed = 0;
  /// Block reads retried after an injected (or real) transient failure.
  int64_t block_read_retries = 0;
  /// Consumer waits on a block that had not landed yet. Wall-dependent,
  /// observability-only — never compare across runs.
  int64_t prefetch_stalls = 0;
  /// High-water mark of tracked cleanup-owned bytes (blocks, decode
  /// windows, current-key member lists). Depends on lane interleaving,
  /// so observability-only; the memory regression test bounds it.
  int64_t peak_resident_bytes = 0;
  /// Tracked bytes still charged after the merge finished. Always 0
  /// (the no-block-leaked invariant the chaos harness checks).
  int64_t resident_bytes_leaked = 0;
};

/// The state cleanup processor (paper §3): after the run-time phase it
/// merges every partition's disk-resident generations (possibly spread
/// over several engines' disks) with its memory-resident remainder and
/// produces exactly the join results the run-time phase could not —
/// combinations whose member tuples span two or more generations — with
/// no duplicates.
///
/// Processing per partition follows the incremental-view-maintenance
/// scheme the paper cites [13]: generations are visited in spill order
/// while cumulative per-input key tables grow; for each generation the
/// cross-generation terms Π(C∪Δ) − Π(C) − Π(Δ) are enumerated by subset
/// expansion (the all-Δ term is what the run-time phase already emitted).
///
/// The algebra runs key-by-key (docs/CLEANUP.md): every (generation,
/// stream) pair is a cursor yielding key runs in ascending key order (v2
/// sections are written key-sorted; v1 sections are key-contiguous;
/// memory remainders iterate sorted keys), and a k-way merge of the
/// cursors holds only the current key's member lists, so resident memory
/// is O(in-flight blocks + current key), not O(spilled state). Eviction
/// fragments join, per key, the first non-evicted generation at or after
/// them that contains that key (one trailing unit when none does).
class CleanupProcessor {
 public:
  CleanupProcessor(const CleanupConfig& config, int num_streams);

  /// Runs cleanup over every engine's spill store and memory remainder.
  /// `spill_stores[e]` / `state_managers[e]` belong to engine e; null
  /// entries are allowed (engine without disk or already-drained state).
  /// Every non-empty segment must carry a section index (SpillStore
  /// indexes every well-formed group blob it writes); one without it, or
  /// with another stream count, fails with InvalidArgument before any
  /// read.
  ///
  /// With `pool`, the per-partition merge loop is distributed over the
  /// pool's lanes. Partitions are independent (each owns its
  /// generations), and per-partition outcomes are merged back in fixed
  /// partition order, so CleanupStats and the result vector — ascending
  /// (partition, key, generation, mask) order — are bit-identical to the
  /// serial run for any worker count.
  [[nodiscard]] StatusOr<CleanupStats> Run(
      const std::vector<const SpillStore*>& spill_stores,
      const std::vector<const StateManager*>& state_managers,
      ExecPool* pool = nullptr) const;

 private:
  CleanupConfig config_;
  int num_streams_;
};

}  // namespace dcape

#endif  // DCAPE_CLEANUP_CLEANUP_H_
