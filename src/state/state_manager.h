#ifndef DCAPE_STATE_STATE_MANAGER_H_
#define DCAPE_STATE_STATE_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <optional>

#include "common/ids.h"
#include "common/status.h"
#include "state/partition_group.h"
#include "tuple/projection.h"
#include "tuple/tuple.h"

namespace dcape {

/// Owns the memory-resident partition groups of one query-engine instance
/// of the partitioned m-way join operator.
///
/// The state manager is purely local mechanism: it processes tuples,
/// tracks sizes/productivity, and can extract (serialize + drop) or
/// install groups. All *policy* — which groups to spill or relocate, and
/// when — lives in `core/` (local controller and global coordinator).
class StateManager {
 public:
  /// `projection` (optional) computes each result's (group_key,
  /// agg_value) from its member tuples — the query's post-join SELECT.
  /// `window_ticks > 0` enables sliding-window join semantics: only
  /// member combinations whose timestamps span at most the window join.
  /// `segment_format` selects the encoding ExtractGroups / EvictExpired
  /// emit (InstallGroup sniffs, so mixed-format clusters interoperate).
  explicit StateManager(
      int num_streams,
      std::optional<ResultProjection> projection = std::nullopt,
      Tick window_ticks = 0,
      SegmentFormat segment_format = SegmentFormat::kV2);

  StateManager(const StateManager&) = delete;
  StateManager& operator=(const StateManager&) = delete;

  /// A group serialized out of memory (spill, relocation, eviction).
  struct ExtractedGroup {
    PartitionId partition = 0;
    std::string blob;
    int64_t bytes = 0;        // tracked state bytes before serialization
    /// v1 fixed-width serialized size of the same state — the "raw"
    /// figure the storage counters compare blob.size() against.
    int64_t raw_bytes = 0;
    int64_t tuple_count = 0;
    /// True when this is a *partial* generation: the coldest keys of a
    /// group whose hot residue stayed memory-resident.
    bool partial = false;
    /// Recursive sub-partition depth this piece was split at (0 = the
    /// whole extracted cold set fit in one segment).
    int sub_depth = 0;
  };

  /// Moves every tuple older than `cutoff` out of the resident groups.
  /// Such tuples can never join future arrivals (arrival timestamps are
  /// monotonic), so removing them is output-transparent for the run-time
  /// phase; the caller decides whether the evicted groups must be
  /// preserved for cleanup (they must iff disk generations exist for the
  /// partition). Returns one evicted group per affected partition. Only
  /// the partitions in `encode` (every partition when it is null) carry
  /// a serialized blob; the others come back with an empty one, their
  /// counts filled in.
  std::vector<ExtractedGroup> EvictExpired(
      Tick cutoff, const std::set<PartitionId>* encode = nullptr);

  /// Adds `tuple` to its partition group (creating it on first touch),
  /// probing for join results first; the group copies the payload into
  /// its arena. Returns the number of results appended to `results`.
  int64_t ProcessTuple(PartitionId partition, const Tuple& tuple,
                       std::vector<JoinResult>* results);

  /// Serializes the named groups and removes them from memory. Used for
  /// both spill (blobs go to the SpillStore) and relocation (blobs go over
  /// the network). Unknown or locked partitions are skipped silently —
  /// the controllers pass validated lists, but races with concurrent
  /// adaptations resolve to "skip".
  std::vector<ExtractedGroup> ExtractGroups(
      const std::vector<PartitionId>& partitions);

  /// Bucket-granular spill extraction: serializes `target_bytes` of the
  /// partition's *coldest keys* (whole buckets across all streams, so
  /// the spilled and resident key sets are disjoint) and removes them
  /// from memory, keeping the hot residue probe-able. A target covering
  /// the whole group degenerates to full extraction. Each returned
  /// piece is at most ~`max_piece_bytes` of state where possible:
  /// larger cold sets re-split on a secondary key hash (recursive
  /// sub-partitioning, bounded by `max_depth`), emitted in ascending
  /// slot order for determinism. Locked or unknown partitions yield {}.
  std::vector<ExtractedGroup> ExtractColdState(PartitionId partition,
                                               int64_t target_bytes,
                                               int64_t max_piece_bytes,
                                               int max_depth);

  /// Marks / clears a partition as having disk-resident generations.
  /// While marked, a ProcessTuple probe producing no resident results
  /// counts as a *cold probe miss* — the would-be match may be on disk;
  /// the probe records the miss instead of blocking on a read, and the
  /// cleanup phase produces the deferred results.
  void MarkDiskBacked(PartitionId partition);
  void ClearDiskBacked(PartitionId partition);
  bool IsDiskBacked(PartitionId partition) const {
    return disk_backed_.count(partition) > 0;
  }
  /// Cumulative probes on disk-backed partitions that found no resident
  /// match (observability for the gradual-spill plane).
  int64_t cold_probe_misses() const { return cold_probe_misses_; }

  /// Installs a serialized group (from relocation). If a group for the
  /// same partition already exists, the states are merged.
  [[nodiscard]] Status InstallGroup(std::string_view blob);

  /// Marks groups as locked: locked groups are skipped by ExtractGroups
  /// calls with `respect_locks` semantics (spill must not race with an
  /// in-flight relocation of the same groups).
  void LockGroups(const std::vector<PartitionId>& partitions);
  void UnlockGroups(const std::vector<PartitionId>& partitions);
  bool IsLocked(PartitionId partition) const;

  /// Stats snapshot of every memory-resident group, unlocked ones only
  /// when `exclude_locked`.
  std::vector<GroupStats> SnapshotStats(bool exclude_locked) const;

  /// Direct access for the cleanup phase (memory-resident remainder).
  const PartitionGroup* FindGroup(PartitionId partition) const;
  /// Partition ids of all memory-resident groups, sorted.
  std::vector<PartitionId> PartitionIds() const;

  int64_t total_bytes() const { return total_bytes_; }
  /// High-water mark of total_bytes().
  int64_t peak_bytes() const { return peak_bytes_; }
  /// Heap bytes the resident groups hold: every group's index plus
  /// arena capacity (PartitionGroup::resident_bytes). Kept
  /// incrementally; it moves only when an index or arena grows, shrinks
  /// or compacts, or a group comes or goes.
  int64_t resident_bytes() const { return resident_bytes_; }
  /// Exact high-water mark of resident_bytes().
  int64_t peak_resident_bytes() const { return peak_resident_bytes_; }
  int64_t group_count() const { return static_cast<int64_t>(groups_.size()); }
  int64_t total_tuples() const { return total_tuples_; }
  /// Cumulative join results produced by ProcessTuple.
  int64_t total_outputs() const { return total_outputs_; }
  int num_streams() const { return num_streams_; }
  const std::optional<ResultProjection>& projection() const {
    return projection_;
  }
  Tick window_ticks() const { return window_ticks_; }
  SegmentFormat segment_format() const { return segment_format_; }

 private:
  /// Serializes `piece` into an ExtractedGroup (shared by the whole- and
  /// partial-extraction paths).
  ExtractedGroup SerializePiece(PartitionGroup&& piece, bool partial,
                                int sub_depth);
  /// Adds `delta` to the tracked / resident totals and raises their
  /// high-water marks.
  void AddBytes(int64_t delta);
  void AddResident(int64_t delta);

  int num_streams_;
  std::optional<ResultProjection> projection_;
  Tick window_ticks_;
  SegmentFormat segment_format_;
  std::map<PartitionId, std::unique_ptr<PartitionGroup>> groups_;
  std::map<PartitionId, bool> locked_;
  std::set<PartitionId> disk_backed_;
  int64_t cold_probe_misses_ = 0;
  int64_t total_bytes_ = 0;
  int64_t peak_bytes_ = 0;
  int64_t resident_bytes_ = 0;
  int64_t peak_resident_bytes_ = 0;
  int64_t total_tuples_ = 0;
  int64_t total_outputs_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_STATE_STATE_MANAGER_H_
