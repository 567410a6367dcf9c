#ifndef DCAPE_OPERATORS_MJOIN_H_
#define DCAPE_OPERATORS_MJOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include <optional>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "core/victim_policy.h"
#include "state/state_manager.h"
#include "storage/spill_store.h"
#include "tuple/tuple.h"

namespace dcape {

/// One instance of the partitioned symmetric m-way hash join operator
/// (Viglas et al. [26]) — the paper's representative state-intensive
/// operator. Each query engine hosts one instance processing its share of
/// the partitions.
///
/// The operator couples a StateManager (memory-resident partition groups)
/// with an optional SpillStore; `SpillGradual` freezes the planned
/// groups, or their coldest keys, to disk as new generations. Policy
/// decisions (which partitions, how much, when) are made by the
/// controllers in `core/`.
class MJoin {
 public:
  /// `spill_store` may be null for engines that never spill (pure
  /// relocation or all-memory setups); SpillGradual then fails with
  /// FailedPrecondition. `projection` (optional) computes each result's
  /// (group_key, agg_value) from its member tuples.
  MJoin(int num_streams, SpillStore* spill_store,
        std::optional<ResultProjection> projection = std::nullopt,
        Tick window_ticks = 0,
        SegmentFormat segment_format = SegmentFormat::kV2)
      : state_(num_streams, projection, window_ticks, segment_format),
        spill_store_(spill_store) {}

  MJoin(const MJoin&) = delete;
  MJoin& operator=(const MJoin&) = delete;

  /// Processes one input tuple through its partition group, appending any
  /// produced m-way results. Returns the number of results.
  int64_t Process(PartitionId partition, const Tuple& tuple,
                  std::vector<JoinResult>* results) {
    return state_.ProcessTuple(partition, tuple, results);
  }

  /// Outcome of one spill adaptation.
  struct SpillOutcome {
    int64_t bytes = 0;
    int64_t tuples = 0;
    int groups = 0;
    /// Total virtual disk-write time; the engine stays busy this long.
    Tick io_ticks = 0;
    /// Groups whose segment write failed; each was reinstalled into
    /// memory unchanged (no state was lost, nothing was charged to
    /// bytes/tuples/io_ticks). `first_error` carries the first failure.
    int failed_groups = 0;
    Status first_error;
    /// Segments written, groups spilled partially (hot residue
    /// resident), and extra segments produced by recursive
    /// sub-partition splits.
    int segments = 0;
    int partial_groups = 0;
    int subpartition_splits = 0;
    /// Deepest secondary-hash split across all pieces this spill.
    int max_sub_depth = 0;
  };

  /// Bucket-granular spill: executes a gradual plan (core/victim_policy
  /// SpillRequest list). Whole-group requests extract the full group;
  /// partial requests move only the coldest keys, leaving the hot
  /// residue probe-able in memory. Cold sets larger than
  /// `max_piece_bytes` re-split on a secondary key hash up to
  /// `max_depth` (recursive sub-partitioning), emitting one segment per
  /// sub-group in deterministic slot order. Locked (relocating) and
  /// absent partitions are skipped. Failed segment writes reinstall the
  /// piece (merging back into the residue) — no state is ever lost.
  /// Successfully spilled partitions are marked disk-backed so later
  /// probe misses count as cold hits.
  [[nodiscard]] StatusOr<SpillOutcome> SpillGradual(
      const std::vector<SpillRequest>& plan, Tick now,
      int64_t max_piece_bytes, int max_depth);

  StateManager& state() { return state_; }
  const StateManager& state() const { return state_; }
  SpillStore* spill_store() { return spill_store_; }
  const SpillStore* spill_store() const { return spill_store_; }

  int num_streams() const { return state_.num_streams(); }

 private:
  StateManager state_;
  SpillStore* spill_store_;
};

}  // namespace dcape

#endif  // DCAPE_OPERATORS_MJOIN_H_
