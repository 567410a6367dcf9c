#ifndef DCAPE_TUPLE_TUPLE_H_
#define DCAPE_TUPLE_TUPLE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/virtual_clock.h"

namespace dcape {

/// One stream tuple flowing through the system.
///
/// The schema mirrors the paper's workload: every tuple carries the join
/// column value (`join_key`), its arrival timestamp, and an opaque payload
/// standing in for the remaining columns (offer, price, broker name, ...).
/// `seq` is the per-stream arrival sequence number; the pair
/// (stream_id, seq) uniquely identifies a tuple, which the tests use to
/// compare result sets against a reference join.
struct Tuple {
  StreamId stream_id = 0;
  /// Per-stream, monotonically increasing arrival sequence number.
  int64_t seq = 0;
  /// Join column value. Partitioning hashes this key, so all tuples of a
  /// partition share a key domain disjoint from other partitions.
  JoinKey join_key = 0;
  /// Virtual arrival time at the stream generator.
  Tick timestamp = 0;
  /// A typed numeric column (e.g., the offer *price* of the paper's
  /// QUERY 1), used by selection predicates and aggregate functions.
  int64_t value = 0;
  /// A typed categorical column (e.g., the *broker* of QUERY 1), used as
  /// the grouping key of aggregates.
  int64_t category = 0;
  /// Opaque payload bytes (remaining columns).
  std::string payload;

  /// The fixed-width part of ByteSize: every column but the payload,
  /// plus the payload's length prefix.
  static constexpr int64_t kHeaderBytes =
      sizeof(StreamId) + sizeof(int64_t) + sizeof(JoinKey) + sizeof(Tick) +
      2 * sizeof(int64_t) + sizeof(uint32_t);

  /// Bytes this tuple occupies when resident in operator state or when
  /// serialized: the fixed header plus the payload.
  int64_t ByteSize() const {
    return kHeaderBytes + static_cast<int64_t>(payload.size());
  }

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.stream_id == b.stream_id && a.seq == b.seq &&
           a.join_key == b.join_key && a.timestamp == b.timestamp &&
           a.value == b.value && a.category == b.category &&
           a.payload == b.payload;
  }
};

/// A batch of tuples belonging to one input stream, as shipped from a
/// split operator to a query engine.
struct TupleBatch {
  StreamId stream_id = 0;
  std::vector<Tuple> tuples;
  /// Wall-clock emission time (microseconds since run start) stamped by
  /// the realtime generator, so the sink can measure true end-to-end
  /// latency regardless of the tick/wall pacing ratio. 0 in the
  /// virtual-clock simulator and for re-released buffered tuples;
  /// transport metadata only — excluded from ByteSize so the simulated
  /// bandwidth model is unchanged.
  int64_t emit_wall_us = 0;

  int64_t ByteSize() const {
    int64_t total = static_cast<int64_t>(sizeof(StreamId));
    for (const Tuple& t : tuples) total += t.ByteSize();
    return total;
  }
};

/// The `seq`s of a join result's members, one per input stream, stored
/// inline (capacity kMaxStreams): building or copying a result never
/// touches the heap.
class MemberSeqs {
 public:
  using iterator = const int64_t*;
  using const_iterator = const int64_t*;

  MemberSeqs() = default;
  MemberSeqs(std::initializer_list<int64_t> seqs) {
    DCAPE_CHECK_LE(seqs.size(), static_cast<size_t>(kMaxStreams));
    std::copy(seqs.begin(), seqs.end(), seqs_.begin());
    size_ = static_cast<uint32_t>(seqs.size());
  }

  /// Resizes to `n` members, each `seq`.
  void assign(size_t n, int64_t seq) {
    DCAPE_CHECK_LE(n, static_cast<size_t>(kMaxStreams));
    std::fill_n(seqs_.begin(), n, seq);
    size_ = static_cast<uint32_t>(n);
  }

  size_t size() const { return size_; }
  int64_t& operator[](size_t i) { return seqs_[i]; }
  int64_t operator[](size_t i) const { return seqs_[i]; }
  const_iterator begin() const { return seqs_.data(); }
  const_iterator end() const { return seqs_.data() + size_; }

  friend bool operator==(const MemberSeqs& a, const MemberSeqs& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<int64_t, kMaxStreams> seqs_{};
  uint32_t size_ = 0;
};

/// One m-way join result: the identity of the m joined tuples (one per
/// input stream, ordered by stream id) plus the join key and partition.
///
/// Results carry tuple identities rather than concatenated payloads; this
/// is sufficient for the application server and lets the test suite check
/// set-equality against a reference join cheaply. `member_seqs[i]` is the
/// `seq` of the joined tuple from stream `i`.
struct JoinResult {
  PartitionId partition = 0;
  JoinKey join_key = 0;
  MemberSeqs member_seqs;
  /// Grouping key projected from the member tuples when the query
  /// configures a ResultProjection (0 otherwise). For QUERY 1 this is the
  /// broker.
  int64_t group_key = 0;
  /// Aggregate input projected from the member tuples (e.g., the minimum
  /// offer price across the joined offers).
  int64_t agg_value = 0;
  /// Arrival timestamp of the latest member tuple — the moment this
  /// result became *producible*. Delivery time minus this is the
  /// result's end-to-end latency.
  Tick latest_member_ts = 0;

  /// Canonical string encoding, usable as a set/map key in tests.
  std::string EncodeKey() const;

  int64_t ByteSize() const {
    return static_cast<int64_t>(sizeof(PartitionId) + sizeof(JoinKey)) +
           static_cast<int64_t>(member_seqs.size() * sizeof(int64_t));
  }

  friend bool operator==(const JoinResult& a, const JoinResult& b) {
    return a.partition == b.partition && a.join_key == b.join_key &&
           a.member_seqs == b.member_seqs;
  }
};

}  // namespace dcape

#endif  // DCAPE_TUPLE_TUPLE_H_
