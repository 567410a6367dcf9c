#ifndef DCAPE_STATE_PARTITION_GROUP_H_
#define DCAPE_STATE_PARTITION_GROUP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/virtual_clock.h"
#include "state/block_arena.h"
#include "state/key_index.h"
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

/// The paper's adaptation unit: all per-input-stream state with one
/// partition id, kept together so joins never span machines and cleanup
/// needs no per-tuple timestamps (§2, "Partition-Group Granularity").
///
/// The state lives in three structures:
///  - a JoinKeyIndex (open addressing) holding, per join key, the key's
///    access clock and each stream's tail row;
///  - fixed-width 48-byte rows (seq, timestamp, value, category, payload
///    handle and length, next-row link) in a row arena, chained per
///    (key, stream) in arrival order — the stream is implied by the
///    chain and the key lives in the index. Chains are circular: the
///    tail links back to the head, so one tail per stream reaches both
///    the oldest tuple and the place an arrival appends;
///  - the payload bytes in a payload arena.
/// Both arenas grow in fixed blocks that never move (BlockArena: 4,096
/// rows, 256 KiB of payload); only block 0 grows by copying, up to a
/// full block, so a small group holds what vectors would and a large
/// one never copies its state to grow. A row is exactly
/// Tuple::kHeaderBytes, so the live arena bytes equal the tracked
/// bytes() and resident memory is the arenas' capacity plus the index.
/// An arriving tuple finds or creates its key's slot once, probes the
/// *other* streams' chains there (m-way symmetric hash join, Viglas et
/// al. [26]), appends itself to its own stream's chain and stamps the
/// clock.
///
/// Moving keys out (EvictBefore, SplitColdest, SplitBySecondaryHashBit)
/// leaves dead rows and payload in the arenas, and a payload that does
/// not fit a block's tail leaves that tail unused; both count as dead.
/// Whenever the dead bytes would exceed the live ones, the arenas
/// compact in place and free the blocks past their new end, so after
/// any public call dead_bytes() <= bytes(). Destroying the group (a
/// whole-group spill or relocation) frees the arenas whole.
///
/// Nothing reads the index in slot order on the way to bytes or results:
/// every reader walks ascending keys.
class PartitionGroup {
 public:
  /// One stored tuple as a reader sees it. Its stream and join key are
  /// those of the chain it was read from; `payload` points into the
  /// group's arena.
  struct RowRef {
    int64_t seq = 0;
    Tick timestamp = 0;
    int64_t value = 0;
    int64_t category = 0;
    std::string_view payload;

    /// The full tuple, given the chain's stream and key.
    Tuple ToTuple(StreamId stream, JoinKey key) const;
  };

  /// One (key, stream) chain: a forward range of RowRefs in arrival
  /// order, head to tail, valid until the group next changes. Empty
  /// when the group holds no such tuple.
  class RowChain {
   public:
    class Iterator {
     public:
      Iterator() = default;
      RowRef operator*() const { return group_->View(row_); }
      /// The tail's successor is the head again: the walk ends there.
      Iterator& operator++() {
        row_ = row_ == tail_ ? kNoRow : group_->rows_[row_].next;
        return *this;
      }
      bool operator==(const Iterator& other) const {
        return row_ == other.row_;
      }

     private:
      friend class RowChain;
      Iterator(const PartitionGroup* group, RowId row, RowId tail)
          : group_(group), row_(row), tail_(tail) {}
      const PartitionGroup* group_ = nullptr;
      RowId row_ = kNoRow;
      RowId tail_ = kNoRow;
    };

    RowChain() = default;
    Iterator begin() const {
      return Iterator(group_, empty() ? kNoRow : group_->rows_[tail_].next,
                      tail_);
    }
    Iterator end() const { return Iterator(group_, kNoRow, tail_); }
    bool empty() const { return tail_ == kNoRow; }
    /// The chain's length; walks the chain.
    size_t size() const;
    /// The oldest tuple; the chain must not be empty.
    RowRef front() const { return *begin(); }

   private:
    friend class PartitionGroup;
    RowChain(const PartitionGroup* group, RowId tail)
        : group_(group), tail_(tail) {}
    const PartitionGroup* group_ = nullptr;
    RowId tail_ = kNoRow;
  };

  /// An empty group for `partition` over `num_streams` join inputs. It
  /// holds no heap memory until its first tuple.
  PartitionGroup(PartitionId partition, int num_streams);

  PartitionGroup(const PartitionGroup&) = delete;
  PartitionGroup& operator=(const PartitionGroup&) = delete;
  PartitionGroup(PartitionGroup&&) = default;
  PartitionGroup& operator=(PartitionGroup&&) = default;

  /// Probes the other streams for matches with `tuple` and appends the
  /// produced m-way results to `results`, then appends `tuple` to its
  /// key's chain — one index probe covers the probe, the insert and the
  /// access clock. Returns the number of results produced. Updates byte
  /// accounting and productivity counters. When `projection` is non-null
  /// each result's (group_key, agg_value) is computed from the member
  /// tuples. When `window_ticks > 0` only combinations whose member
  /// timestamps span at most the window qualify (sliding-window join
  /// semantics for infinite streams). Allocates only when the index or
  /// an arena grows (amortized nothing).
  DCAPE_HOT_PATH int64_t ProbeAndInsert(
      const Tuple& tuple, std::vector<JoinResult>* results,
      const ResultProjection* projection = nullptr, Tick window_ticks = 0);

  /// Moves every tuple with timestamp < `cutoff` into `evicted` (a group
  /// of the same partition/stream count). Returns the number of evicted
  /// tuples; byte/tuple accounting moves with them. Output counters stay
  /// with this group. Every row is checked: a chain need not be in
  /// timestamp order (a reinstalled older generation appends behind
  /// newer tuples).
  int64_t EvictBefore(Tick cutoff, PartitionGroup* evicted);

  /// Inserts without probing (used when rebuilding state during cleanup).
  void InsertOnly(const Tuple& tuple);

  /// Merges all state and counters of `other` into this group: its rows
  /// are copied in and append behind this group's in every shared
  /// (key, stream) chain.
  /// Used when a relocated group lands on an engine that has since
  /// accumulated new tuples for the same partition (defensive; the
  /// protocol normally prevents this), and when a failed eviction write
  /// reinstalls the expired tuples.
  void MergeFrom(PartitionGroup&& other);

  /// Moves the *coldest whole keys* — every stream's tuples for a key
  /// move together — into `cold` until at least `target_bytes` have
  /// moved. Coldness is the key's access clock (last ProbeAndInsert
  /// arrival for the key; keys never probed rank coldest), ties broken
  /// on ascending key, so the split is a pure function of the
  /// processing history and deterministic across thread counts. The
  /// moved rows are copied into `cold`'s arenas.
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
  int64_t DistinctKeyCount() const { return index_.size(); }

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
  /// id, which no v1 encoder produces). v2 rows and payload bytes are
  /// appended straight from the blob.
  [[nodiscard]] static StatusOr<PartitionGroup> Deserialize(
      std::string_view data);

  /// Every join key the group holds tuples for, ascending.
  std::vector<JoinKey> SortedKeys() const;

  /// One stream's join keys in ascending order. The streaming cleanup
  /// merge iterates memory-resident generations key-by-key alongside
  /// disk cursors, which decode segments in key-sorted section order.
  std::vector<JoinKey> SortedKeysForStream(StreamId stream) const;

  /// Stream `stream`'s tuples with join key `key`, in arrival order.
  RowChain KeyTuples(JoinKey key, StreamId stream) const;

  PartitionId partition() const { return partition_; }
  int num_streams() const { return num_streams_; }
  int64_t bytes() const { return bytes_; }
  int64_t tuple_count() const { return tuple_count_; }
  int64_t outputs() const { return outputs_; }
  bool empty() const { return tuple_count_ == 0; }

  /// Heap bytes the group holds: the index's slot array plus both
  /// arenas' capacity. O(1).
  int64_t resident_bytes() const {
    return index_.resident_bytes() +
           static_cast<int64_t>(rows_.capacity() * sizeof(Row)) +
           payload_.resident_bytes();
  }
  /// Arena bytes (rows and payload) no chain reaches any more, gaps at
  /// payload block tails included. At most bytes() after every public
  /// call.
  int64_t dead_bytes() const {
    return static_cast<int64_t>(rows_.size() * sizeof(Row)) +
           payload_.stored_bytes() - bytes_;
  }

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
  /// One stored tuple. A row is exactly the tracked header size, so the
  /// arenas' live bytes are the tracked bytes.
  struct Row {
    int64_t seq;
    Tick timestamp;
    int64_t value;
    int64_t category;
    /// The payload's PayloadArena handle and size; 32-bit handles bound
    /// a group to 4 GiB of payload blocks, which storing checks.
    uint32_t payload_handle;
    uint32_t payload_size;
    /// The next row of the same (key, stream) chain; the tail's is the
    /// head.
    RowId next;
  };
  static_assert(sizeof(Row) == Tuple::kHeaderBytes);

  RowRef View(RowId row) const;
  /// Appends `tuple` as a row of stream `stream`'s chain at index slot
  /// `slot`, copying its payload into the payload arena; updates byte /
  /// tuple accounting. Returns the row.
  RowId AppendRow(size_t slot, int stream, const RowRef& tuple);
  /// Splices the circular chain whose tail is `tail` behind stream
  /// `stream`'s chain at index slot `slot`; `tail` becomes its tail.
  void LinkBehind(size_t slot, int stream, RowId tail);
  /// Copies the key at `slot` — every stream's chain and the access
  /// clock — into `dst`, behind any tuples `dst` already has for it,
  /// then drops it here (its rows become dead). Returns the bytes moved.
  int64_t MoveKeyTo(size_t slot, PartitionGroup* dst);
  /// Compacts the arenas in place (live rows and their payloads slide to
  /// the front in arena order, chains relinked, blocks past the new ends
  /// freed) when the dead bytes exceed the live ones, and shrinks an
  /// index that many erasures left sparse.
  void ReclaimDead();
  /// (key, slot) of every key, ascending by key.
  std::vector<std::pair<JoinKey, size_t>> SortedSlots() const;

  PartitionId partition_;
  int num_streams_;
  JoinKeyIndex index_;
  /// Rows in blocks of 4,096 (192 KiB).
  BlockArena<Row, 12> rows_;
  PayloadArena payload_;
  int64_t bytes_ = 0;
  int64_t tuple_count_ = 0;
  int64_t outputs_ = 0;
  /// Logical counter advanced on every ProbeAndInsert; the arriving
  /// tuple's tick number is its key's access clock. Never serialized —
  /// a restored generation starts cold (every clock 0).
  int64_t access_clock_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_STATE_PARTITION_GROUP_H_
