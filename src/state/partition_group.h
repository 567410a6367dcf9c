#ifndef DCAPE_STATE_PARTITION_GROUP_H_
#define DCAPE_STATE_PARTITION_GROUP_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/virtual_clock.h"
#include "tuple/projection.h"
#include "tuple/serde.h"
#include "tuple/tuple.h"

namespace dcape {

/// Lightweight statistics snapshot for one partition group, consumed by
/// the adaptation policies (victim selection, productivity ranking).
struct GroupStats {
  PartitionId partition = 0;
  /// Current memory-resident state bytes (P_size in the paper).
  int64_t bytes = 0;
  /// Output tuples attributed to this group so far (P_output).
  int64_t outputs = 0;
  /// P_output / P_size; 0 when the group is empty.
  double productivity = 0.0;
  int64_t tuple_count = 0;
};

/// Fixed 64-bit mix (splitmix64 finalizer) used to derive sub-partition
/// slots from join keys. Deliberately *not* std::hash: the slot of a key
/// must be identical across standard libraries, platforms, and runs, or
/// the recursive sub-partition split would break trace/oracle
/// bit-identity.
inline uint64_t SecondaryKeyHash(JoinKey key) {
  uint64_t x = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The paper's adaptation unit: all per-input-stream state with one
/// partition id, kept together so joins never span machines and cleanup
/// needs no per-tuple timestamps (§2, "Partition-Group Granularity").
///
/// Internally one key-major hash table maps each join key to an entry
/// holding everything the group knows about the key: its access clock
/// and, per stream, the key's tuples in arrival order. An arriving tuple
/// finds or creates its key's entry once, probes the *other* streams'
/// lists there (m-way symmetric hash join, Viglas et al. [26]), appends
/// itself to its own stream's list and stamps the clock.
/// Nothing iterates the table in hash order on the way to bytes or
/// results: every reader walks ascending keys.
class PartitionGroup {
 public:
  /// An empty group for `partition` over `num_streams` join inputs.
  PartitionGroup(PartitionId partition, int num_streams);

  PartitionGroup(const PartitionGroup&) = delete;
  PartitionGroup& operator=(const PartitionGroup&) = delete;
  PartitionGroup(PartitionGroup&&) = default;
  PartitionGroup& operator=(PartitionGroup&&) = default;

  /// Probes the other streams for matches with `tuple` and appends the
  /// produced m-way results to `results`, then moves `tuple` into the
  /// key's entry — one hash lookup covers the probe, the insert and the
  /// access clock. Returns the number of results produced. Updates byte
  /// accounting and productivity counters. When `projection` is non-null
  /// each result's (group_key, agg_value) is computed from the member
  /// tuples. When `window_ticks > 0` only combinations whose member
  /// timestamps span at most the window qualify (sliding-window join
  /// semantics for infinite streams).
  DCAPE_HOT_PATH int64_t ProbeAndInsert(
      Tuple tuple, std::vector<JoinResult>* results,
      const ResultProjection* projection = nullptr, Tick window_ticks = 0);

  /// Moves every tuple with timestamp < `cutoff` into `evicted` (a group
  /// of the same partition/stream count). Returns the number of evicted
  /// tuples; byte/tuple accounting moves with them. Output counters stay
  /// with this group.
  int64_t EvictBefore(Tick cutoff, PartitionGroup* evicted);

  /// Inserts without probing (used when rebuilding state during cleanup).
  void InsertOnly(const Tuple& tuple);
  /// Move overload: takes ownership of the tuple's payload.
  void InsertOnly(Tuple&& tuple);

  /// Merges all state and counters of `other` into this group. Used when
  /// a relocated group lands on an engine that has since accumulated new
  /// tuples for the same partition (defensive; the protocol normally
  /// prevents this).
  void MergeFrom(PartitionGroup&& other);

  /// Moves the *coldest whole keys* — every stream's tuples for a key
  /// move together — into `cold` until at least `target_bytes` have
  /// moved. Coldness is the key's access clock (last ProbeAndInsert
  /// arrival for the key; keys never probed rank coldest), ties broken
  /// on ascending key, so the split is a pure function of the
  /// processing history and deterministic across thread counts.
  ///
  /// The hottest key never moves: the residue stays non-empty and
  /// probe-able, which is what makes a partial spill different from
  /// eviction. Because the split is key-granular across *all* streams,
  /// the spilled and resident key sets are disjoint — no join result
  /// can span them, so the cleanup generation algebra stays exact.
  /// Returns the bytes moved (0 for a single-key group).
  int64_t SplitColdest(int64_t target_bytes, PartitionGroup* cold);

  /// Moves every key whose secondary hash has bit `bit` set into the
  /// returned group (same partition / stream count). The recursive
  /// sub-partitioning step for groups larger than the memory budget:
  /// splitting on successive bits yields up to 2^depth independently
  /// spillable sub-groups, key-disjoint by construction.
  PartitionGroup SplitBySecondaryHashBit(int bit);

  /// Distinct join keys across all streams (a partial spill or
  /// sub-partition split needs >= 2 to make progress). O(1).
  int64_t DistinctKeyCount() const {
    return static_cast<int64_t>(table_.size());
  }

  /// Exact number of bytes the v1 fixed-width Serialize appends. O(1):
  /// the tracked byte accounting already equals the tuples' raw
  /// serialized size. For v2 this is the reserve estimate and the "raw
  /// bytes" figure the storage counters compare the compact encoding
  /// against.
  int64_t SerializedByteSize() const;

  /// Serializes the full group (counters + all tuples) for spilling or
  /// relocation. Appends to `out`. v2 (default) is the compact segment
  /// format: varint/zigzag fields, one key header per bucket run instead
  /// of per tuple, and per-run delta-encoded seq/timestamps. v1 is the
  /// original fixed-width layout, kept for compatibility benchmarking.
  void Serialize(std::string* out,
                 SegmentFormat format = SegmentFormat::kV2) const;

  /// Reconstructs a group from Serialize output of either format (the
  /// version is sniffed: the v2 magic decodes as a negative v1 partition
  /// id, which no v1 encoder produces).
  [[nodiscard]] static StatusOr<PartitionGroup> Deserialize(
      std::string_view data);

  /// Every join key the group holds tuples for, ascending.
  std::vector<JoinKey> SortedKeys() const;

  /// One stream's join keys in ascending order. The streaming cleanup
  /// merge iterates memory-resident generations key-by-key alongside
  /// disk cursors, which decode segments in key-sorted section order.
  std::vector<JoinKey> SortedKeysForStream(StreamId stream) const;

  /// Stream `stream`'s tuples with join key `key`, in arrival order.
  /// Empty when there are none; valid until the group next changes.
  std::span<const Tuple> KeyTuples(JoinKey key, StreamId stream) const;

  PartitionId partition() const { return partition_; }
  int num_streams() const { return num_streams_; }
  int64_t bytes() const { return bytes_; }
  int64_t tuple_count() const { return tuple_count_; }
  int64_t outputs() const { return outputs_; }
  bool empty() const { return tuple_count_ == 0; }

  /// P_output / P_size (outputs per state byte); 0 for an empty group.
  double productivity() const {
    return bytes_ > 0 ? static_cast<double>(outputs_) /
                            static_cast<double>(bytes_)
                      : 0.0;
  }

  GroupStats Stats() const {
    return GroupStats{partition_, bytes_, outputs_, productivity(),
                      tuple_count_};
  }

 private:
  /// Everything the group holds for one join key. An entry exists iff it
  /// holds a tuple.
  struct KeyEntry {
    explicit KeyEntry(int num_streams)
        : streams(static_cast<size_t>(num_streams)) {}
    /// Deterministic access clock: the access_clock_ tick of the last
    /// ProbeAndInsert arrival with this key, 0 if none (ranks coldest).
    /// Never serialized — a restored generation starts cold.
    int64_t last_touch = 0;
    /// streams[s] = the key's tuples of stream s, in arrival order.
    std::vector<std::vector<Tuple>> streams;
  };
  using Table = std::unordered_map<JoinKey, KeyEntry>;

  /// The entry for `key`, created empty if the group has none (the
  /// caller then appends to it). One hash lookup.
  KeyEntry& EntryFor(JoinKey key);
  /// Appends `tuple` to `entry`, with byte / tuple accounting.
  void Append(KeyEntry* entry, Tuple&& tuple);
  /// Appends each stream's tuples of `from` behind `into`'s and merges
  /// the access clocks by max; byte / tuple accounting is the caller's.
  static void Absorb(KeyEntry* into, KeyEntry* from);
  /// Moves the entry at `it` — every stream's tuples and the access
  /// clock — into `dst`, merging with an entry `dst` already has.
  /// Returns the bytes moved.
  int64_t MoveEntryTo(Table::iterator it, PartitionGroup* dst);
  /// Entries in ascending key order.
  std::vector<const Table::value_type*> SortedEntries() const;

  PartitionId partition_;
  int num_streams_;
  Table table_;
  int64_t bytes_ = 0;
  int64_t tuple_count_ = 0;
  int64_t outputs_ = 0;
  /// Logical counter advanced on every ProbeAndInsert; the arriving
  /// tuple's tick number is its key's last_touch.
  int64_t access_clock_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_STATE_PARTITION_GROUP_H_
