#include "state/partition_group.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.h"
#include "tuple/serde.h"

namespace dcape {
namespace {

/// v2 partition-group magic. Read as the leading v1 field (i32 partition
/// id, little endian) it is negative, which no v1 encoder ever produces.
constexpr char kGroupMagic[4] = {0x44, 0x43, 0x50, static_cast<char>(0xB2)};

}  // namespace

PartitionGroup::PartitionGroup(PartitionId partition, int num_streams)
    : partition_(partition), num_streams_(num_streams), index_(num_streams) {
  DCAPE_CHECK_GE(num_streams, 2);
  DCAPE_CHECK_LE(num_streams, kMaxStreams);
}

Tuple PartitionGroup::RowRef::ToTuple(StreamId stream, JoinKey key) const {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = timestamp;
  t.value = value;
  t.category = category;
  t.payload.assign(payload);
  return t;
}

size_t PartitionGroup::RowChain::size() const {
  size_t n = 0;
  for (RowId r = first_; r != kNoRow; r = group_->rows_[r].next) ++n;
  return n;
}

PartitionGroup::RowRef PartitionGroup::View(RowId row) const {
  const Row& r = rows_[row];
  return RowRef{r.seq, r.timestamp, r.value, r.category,
                payload_.Get(r.payload_handle, r.payload_size)};
}

RowId PartitionGroup::AppendRow(size_t slot, int stream, const RowRef& tuple) {
  // 32-bit row links and payload handles: overflow aborts, never wraps
  // (PayloadArena::Store checks the handles).
  DCAPE_CHECK_LT(rows_.size(), size_t{kNoRow});
  DCAPE_CHECK_LE(tuple.payload.size(), size_t{UINT32_MAX});
  const RowId row = static_cast<RowId>(rows_.Allot(1));
  rows_[row] = Row{tuple.seq, tuple.timestamp, tuple.value, tuple.category,
                   payload_.Store(tuple.payload),
                   static_cast<uint32_t>(tuple.payload.size()), kNoRow};
  LinkBehind(slot, stream, row, row);
  bytes_ += Tuple::kHeaderBytes + static_cast<int64_t>(tuple.payload.size());
  tuple_count_ += 1;
  return row;
}

void PartitionGroup::LinkBehind(size_t slot, int stream, RowId first,
                                RowId last) {
  const RowId tail = index_.last(slot, stream);
  if (tail == kNoRow) {
    index_.set_chain(slot, stream, first, last);
  } else {
    rows_[tail].next = first;
    index_.set_chain(slot, stream, index_.first(slot, stream), last);
  }
}

int64_t PartitionGroup::ProbeAndInsert(const Tuple& tuple,
                                       std::vector<JoinResult>* results,
                                       const ResultProjection* projection,
                                       Tick window_ticks) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);
  // The arrival's one index probe: the key's slot serves the probe, the
  // insert and the access clock.
  const size_t slot = index_.FindOrInsert(tuple.join_key);
  const int own = tuple.stream_id;

  // An m-way result needs a partner from every other stream.
  bool all_matched = true;
  for (int s = 0; s < num_streams_ && all_matched; ++s) {
    all_matched = s == own || index_.first(slot, s) != kNoRow;
  }

  // The arrival joins its own chain first; the enumeration below pins
  // the own stream's cursor to it and walks only the other chains.
  std::array<RowId, kMaxStreams> cursor{};
  cursor[static_cast<size_t>(own)] = AppendRow(
      slot, own,
      RowRef{tuple.seq, tuple.timestamp, tuple.value, tuple.category,
             tuple.payload});
  index_.set_touch(slot, ++access_clock_);

  int64_t produced = 0;
  if (all_matched) {
    // Enumerate the cross product of the other streams' chains. The
    // result (inline member seqs) and the odometer cursor live on the
    // stack, so steady-state probes never allocate.
    JoinResult result;
    result.partition = partition_;
    result.join_key = tuple.join_key;
    result.member_seqs.assign(static_cast<size_t>(num_streams_), 0);
    for (int s = 0; s < num_streams_; ++s) {
      if (s != own) cursor[static_cast<size_t>(s)] = index_.first(slot, s);
    }
    while (true) {
      int64_t agg = 0;
      bool first_member = true;
      Tick min_ts = tuple.timestamp;
      Tick max_ts = tuple.timestamp;
      for (int s = 0; s < num_streams_; ++s) {
        const size_t i = static_cast<size_t>(s);
        const Row& member = rows_[cursor[i]];
        result.member_seqs[i] = member.seq;
        min_ts = std::min(min_ts, member.timestamp);
        max_ts = std::max(max_ts, member.timestamp);
        if (projection != nullptr) {
          if (s == projection->group_stream) {
            result.group_key = member.category;
          }
          agg = FoldAggregate(projection->op, agg, member.value, first_member);
          first_member = false;
        }
      }
      if (window_ticks <= 0 || max_ts - min_ts <= window_ticks) {
        if (projection != nullptr) result.agg_value = agg;
        result.latest_member_ts = max_ts;
        if (results != nullptr) results->push_back(result);
        ++produced;
      }

      // Odometer increment over the non-arriving streams' chains.
      int s = num_streams_ - 1;
      for (; s >= 0; --s) {
        if (s == own) continue;
        RowId& c = cursor[static_cast<size_t>(s)];
        c = rows_[c].next;
        if (c != kNoRow) break;
        c = index_.first(slot, s);
      }
      if (s < 0) break;
    }
  }

  outputs_ += produced;
  return produced;
}

int64_t PartitionGroup::EvictBefore(Tick cutoff, PartitionGroup* evicted) {
  DCAPE_CHECK(evicted != nullptr);
  DCAPE_CHECK_EQ(evicted->partition(), partition_);
  DCAPE_CHECK_EQ(evicted->num_streams(), num_streams_);
  int64_t moved = 0;
  std::vector<JoinKey> drained;
  // Each key's expired rows copy into `evicted` in chain order, so the
  // visiting order only decides the arena layouts, never a chain.
  for (size_t slot : index_) {
    size_t expired = JoinKeyIndex::kNoSlot;
    bool empty = true;
    for (int s = 0; s < num_streams_; ++s) {
      // Unlink expired rows (they become dead) and keep the survivors'
      // order.
      RowId first = index_.first(slot, s);
      RowId kept = kNoRow;
      for (RowId r = first; r != kNoRow;) {
        const RowId next = rows_[r].next;
        if (rows_[r].timestamp < cutoff) {
          if (expired == JoinKeyIndex::kNoSlot) {
            expired = evicted->index_.FindOrInsert(index_.key(slot));
          }
          evicted->AppendRow(expired, s, View(r));
          bytes_ -= Tuple::kHeaderBytes + rows_[r].payload_size;
          tuple_count_ -= 1;
          ++moved;
          if (kept == kNoRow) {
            first = next;
          } else {
            rows_[kept].next = next;
          }
        } else {
          kept = r;
        }
        r = next;
      }
      index_.set_chain(slot, s, first, kept);
      empty = empty && first == kNoRow;
    }
    // A key with no tuples left drops out, access clock included.
    if (empty) drained.push_back(index_.key(slot));
  }
  for (JoinKey key : drained) index_.Erase(index_.Find(key));
  ReclaimDead();
  return moved;
}

void PartitionGroup::InsertOnly(const Tuple& tuple) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);
  AppendRow(index_.FindOrInsert(tuple.join_key), tuple.stream_id,
            RowRef{tuple.seq, tuple.timestamp, tuple.value, tuple.category,
                   tuple.payload});
}

void PartitionGroup::MergeFrom(PartitionGroup&& other) {
  DCAPE_CHECK_EQ(partition_, other.partition_);
  DCAPE_CHECK_EQ(num_streams_, other.num_streams_);
  // Every row of `other`, dead ones too, is copied behind this group's
  // in arena order with its payload, so its row ids shift by row_base;
  // then every chain of `other` links in behind this group's chain for
  // the same (key, stream). Access clocks merge by max: both inputs are
  // deterministic, so the merged coldness ordering is too. A
  // deserialized generation has every clock at 0 and ranks coldest,
  // which is the right prior.
  DCAPE_CHECK_LE(rows_.size() + other.rows_.size(), size_t{kNoRow});
  const RowId row_base = static_cast<RowId>(rows_.size());
  rows_.Reserve(other.rows_.size());
  payload_.Reserve(other.payload_.block_bytes());
  for (size_t r = 0; r < other.rows_.size(); ++r) {
    Row row = other.rows_[r];
    if (row.next != kNoRow) row.next += row_base;
    row.payload_handle = payload_.Store(
        other.payload_.Get(row.payload_handle, row.payload_size));
    rows_[rows_.Allot(1)] = row;
  }
  for (size_t theirs : other.index_) {
    const size_t slot = index_.FindOrInsert(other.index_.key(theirs));
    for (int s = 0; s < num_streams_; ++s) {
      const RowId first = other.index_.first(theirs, s);
      if (first == kNoRow) continue;
      LinkBehind(slot, s, first + row_base,
                 other.index_.last(theirs, s) + row_base);
    }
    index_.set_touch(slot,
                     std::max(index_.touch(slot), other.index_.touch(theirs)));
  }
  bytes_ += other.bytes_;
  tuple_count_ += other.tuple_count_;
  outputs_ += other.outputs_;
  access_clock_ = std::max(access_clock_, other.access_clock_);
  other = PartitionGroup(other.partition_, other.num_streams_);
  // The copies may leave gaps at block tails that push dead past live.
  ReclaimDead();
}

int64_t PartitionGroup::MoveKeyTo(size_t slot, PartitionGroup* dst) {
  const JoinKey key = index_.key(slot);
  const size_t theirs = dst->index_.FindOrInsert(key);
  int64_t moved_bytes = 0;
  int64_t moved_tuples = 0;
  for (int s = 0; s < num_streams_; ++s) {
    for (RowId r = index_.first(slot, s); r != kNoRow; r = rows_[r].next) {
      dst->AppendRow(theirs, s, View(r));
      moved_bytes += Tuple::kHeaderBytes + rows_[r].payload_size;
      ++moved_tuples;
    }
  }
  const int64_t touch = index_.touch(slot);
  dst->index_.set_touch(theirs, std::max(dst->index_.touch(theirs), touch));
  dst->access_clock_ = std::max(dst->access_clock_, touch);
  index_.Erase(slot);
  bytes_ -= moved_bytes;
  tuple_count_ -= moved_tuples;
  return moved_bytes;
}

int64_t PartitionGroup::SplitColdest(int64_t target_bytes,
                                     PartitionGroup* cold) {
  DCAPE_CHECK(cold != nullptr);
  DCAPE_CHECK_EQ(cold->partition(), partition_);
  DCAPE_CHECK_EQ(cold->num_streams(), num_streams_);
  if (target_bytes <= 0 || index_.size() < 2) return 0;

  // Coldest first: ascending (last_touch, key) is a total order over the
  // keys, so the move order does not depend on slot order. Moving a key
  // moves other slots, so each move looks its key up again.
  std::vector<std::pair<int64_t, JoinKey>> order;
  order.reserve(static_cast<size_t>(index_.size()));
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below.
  for (size_t slot : index_) {
    order.emplace_back(index_.touch(slot), index_.key(slot));
  }
  std::sort(order.begin(), order.end());

  int64_t moved = 0;
  // The hottest key (last candidate) never moves: the residue must stay
  // probe-able in memory.
  for (size_t i = 0; i + 1 < order.size() && moved < target_bytes; ++i) {
    moved += MoveKeyTo(index_.Find(order[i].second), cold);
  }
  ReclaimDead();
  return moved;
}

PartitionGroup PartitionGroup::SplitBySecondaryHashBit(int bit) {
  DCAPE_CHECK_GE(bit, 0);
  DCAPE_CHECK_LT(bit, 64);
  PartitionGroup high(partition_, num_streams_);
  // Whole keys move into a fresh group, so the visiting order decides
  // nothing about either side's chains.
  std::vector<JoinKey> moving;
  for (size_t slot : index_) {
    const JoinKey key = index_.key(slot);
    if ((SecondaryKeyHash(key) >> bit) & 1ULL) moving.push_back(key);
  }
  for (JoinKey key : moving) MoveKeyTo(index_.Find(key), &high);
  ReclaimDead();
  return high;
}

void PartitionGroup::ReclaimDead() {
  if (dead_bytes() <= bytes_) return;
  if (tuple_count_ == 0) {
    rows_.Clear();
    payload_.Clear();
    index_.ShrinkToFit();
    return;
  }
  // Mark the rows some chain reaches, then slide them (and their
  // payload bytes) to the front in arena order: both arenas are filled
  // in the same order, so payload never moves right. moved_to maps an
  // old row number to its new one.
  std::vector<RowId> moved_to(rows_.size(), kNoRow);
  for (size_t slot : index_) {
    for (int s = 0; s < num_streams_; ++s) {
      for (RowId r = index_.first(slot, s); r != kNoRow; r = rows_[r].next) {
        moved_to[r] = 0;
      }
    }
  }
  RowId live = 0;
  PayloadArena::Compaction payloads(&payload_);
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (moved_to[r] == kNoRow) continue;
    Row row = rows_[r];
    row.payload_handle = payloads.Slide(row.payload_handle, row.payload_size);
    moved_to[r] = live;
    rows_[live++] = row;
  }
  payloads.Seal();
  for (RowId r = 0; r < live; ++r) {
    if (rows_[r].next != kNoRow) rows_[r].next = moved_to[rows_[r].next];
  }
  for (size_t slot : index_) {
    for (int s = 0; s < num_streams_; ++s) {
      const RowId first = index_.first(slot, s);
      if (first == kNoRow) continue;
      index_.set_chain(slot, s, moved_to[first],
                       moved_to[index_.last(slot, s)]);
    }
  }
  rows_.Truncate(live);
  index_.ShrinkToFit();
}

int64_t PartitionGroup::SerializedByteSize() const {
  // v1 layout: header (partition i32 + num_streams i32 + outputs i64),
  // one i64 tuple count per stream, then the tuples; bytes_ tracks
  // exactly the tuples' raw serialized size (Tuple::ByteSize ==
  // TupleSerializedSize).
  return 16 + 8 * static_cast<int64_t>(num_streams_) + bytes_;
}

std::vector<std::pair<JoinKey, size_t>> PartitionGroup::SortedSlots() const {
  std::vector<std::pair<JoinKey, size_t>> slots;
  slots.reserve(static_cast<size_t>(index_.size()));
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below; readers walk keys ascending, not in slot order.
  for (size_t slot : index_) slots.emplace_back(index_.key(slot), slot);
  std::sort(slots.begin(), slots.end());
  return slots;
}

void PartitionGroup::Serialize(std::string* out, SegmentFormat format) const {
  out->reserve(out->size() + static_cast<size_t>(SerializedByteSize()));
  ByteWriter writer(out);
  // Each stream's section: its tuples in (key, arrival) order. Keys go
  // ascending, never in slot order: that depends on the index's hash
  // and on the group's insertion history, so the same logical state
  // would encode to different bytes on the spill sender and on a
  // receiver that merged it. Sorting makes the blob a pure function of
  // the state.
  const std::vector<std::pair<JoinKey, size_t>> keys = SortedSlots();
  if (format == SegmentFormat::kV1) {
    writer.PutI32(partition_);
    writer.PutI32(num_streams_);
    writer.PutI64(outputs_);
    Tuple scratch;  // reused: its payload buffer only ever grows
    for (int s = 0; s < num_streams_; ++s) {
      int64_t stream_tuples = 0;
      for (const auto& [key, slot] : keys) {
        stream_tuples += static_cast<int64_t>(
            RowChain(this, index_.first(slot, s)).size());
      }
      writer.PutI64(stream_tuples);
      for (const auto& [key, slot] : keys) {
        const RowChain run(this, index_.first(slot, s));
        for (const RowRef t : run) {
          scratch.stream_id = s;
          scratch.seq = t.seq;
          scratch.join_key = key;
          scratch.timestamp = t.timestamp;
          scratch.value = t.value;
          scratch.category = t.category;
          scratch.payload.assign(t.payload);
          EncodeTuple(scratch, out);
        }
      }
    }
    return;
  }
  // v2: the stream id is implied by the section and the join key is
  // written once per run (one key's tuples of the section); seq and
  // timestamp delta-encode within the run (arrival order makes the
  // deltas small non-negative values).
  out->append(kGroupMagic, 4);
  writer.PutU8(static_cast<uint8_t>(SegmentFormat::kV2));
  writer.PutVarint(static_cast<uint64_t>(partition_));
  writer.PutVarint(static_cast<uint64_t>(num_streams_));
  writer.PutZigzag(outputs_);
  for (int s = 0; s < num_streams_; ++s) {
    uint64_t runs = 0;
    for (const auto& [key, slot] : keys) {
      runs += index_.first(slot, s) == kNoRow ? 0 : 1;
    }
    writer.PutVarint(runs);
    for (const auto& [key, slot] : keys) {
      const RowChain run(this, index_.first(slot, s));
      if (run.empty()) continue;
      writer.PutZigzag(key);
      writer.PutVarint(run.size());
      int64_t prev_seq = 0;
      Tick prev_ts = 0;
      for (const RowRef t : run) {
        writer.PutZigzag(t.seq - prev_seq);
        writer.PutZigzag(t.timestamp - prev_ts);
        writer.PutZigzag(t.value);
        writer.PutZigzag(t.category);
        writer.PutVString(t.payload);
        prev_seq = t.seq;
        prev_ts = t.timestamp;
      }
    }
  }
}

namespace {

StatusOr<int32_t> CheckedStreamCount(int64_t num_streams) {
  // Bound the stream count before building the group: adversarial or
  // corrupt input must fail with a Status, not abort or overrun the
  // inline member seqs of the results it would join into.
  if (num_streams < 2 || num_streams > kMaxStreams) {
    return Status::InvalidArgument(
        "partition group stream count out of range: " +
        std::to_string(num_streams));
  }
  return static_cast<int32_t>(num_streams);
}

}  // namespace

StatusOr<PartitionGroup> PartitionGroup::Deserialize(std::string_view data) {
  if (data.size() >= 4 && std::memcmp(data.data(), kGroupMagic, 4) == 0) {
    ByteReader reader(data.substr(4));
    DCAPE_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
    if (version != static_cast<uint8_t>(SegmentFormat::kV2)) {
      return Status::InvalidArgument("unsupported partition group version " +
                                     std::to_string(version));
    }
    DCAPE_ASSIGN_OR_RETURN(uint64_t partition, reader.GetVarint());
    if (partition > static_cast<uint64_t>(
                        std::numeric_limits<int32_t>::max())) {
      return Status::InvalidArgument("partition id out of range");
    }
    DCAPE_ASSIGN_OR_RETURN(uint64_t raw_streams, reader.GetVarint());
    DCAPE_ASSIGN_OR_RETURN(
        int32_t num_streams,
        CheckedStreamCount(static_cast<int64_t>(raw_streams)));
    PartitionGroup group(static_cast<PartitionId>(partition), num_streams);
    DCAPE_ASSIGN_OR_RETURN(group.outputs_, reader.GetZigzag());
    for (int s = 0; s < num_streams; ++s) {
      DCAPE_ASSIGN_OR_RETURN(uint64_t num_keys, reader.GetVarint());
      if (num_keys > data.size()) {
        return Status::InvalidArgument("key count exceeds input size");
      }
      for (uint64_t k = 0; k < num_keys; ++k) {
        DCAPE_ASSIGN_OR_RETURN(JoinKey key, reader.GetZigzag());
        DCAPE_ASSIGN_OR_RETURN(uint64_t run_length, reader.GetVarint());
        if (run_length > data.size()) {
          return Status::InvalidArgument("run length exceeds input size");
        }
        // One index probe per run: the key is inserted with the run's
        // first row, so an empty run leaves no key behind. Rows and
        // payload bytes append straight from the blob.
        size_t slot = JoinKeyIndex::kNoSlot;
        int64_t prev_seq = 0;
        Tick prev_ts = 0;
        for (uint64_t i = 0; i < run_length; ++i) {
          RowRef t;
          DCAPE_ASSIGN_OR_RETURN(int64_t seq_delta, reader.GetZigzag());
          t.seq = prev_seq + seq_delta;
          DCAPE_ASSIGN_OR_RETURN(Tick ts_delta, reader.GetZigzag());
          t.timestamp = prev_ts + ts_delta;
          DCAPE_ASSIGN_OR_RETURN(t.value, reader.GetZigzag());
          DCAPE_ASSIGN_OR_RETURN(t.category, reader.GetZigzag());
          DCAPE_ASSIGN_OR_RETURN(t.payload, reader.GetVStringView());
          prev_seq = t.seq;
          prev_ts = t.timestamp;
          if (slot == JoinKeyIndex::kNoSlot) {
            slot = group.index_.FindOrInsert(key);
          }
          group.AppendRow(slot, s, t);
        }
      }
    }
    if (!reader.exhausted()) {
      return Status::InvalidArgument("trailing bytes after partition group");
    }
    return group;
  }

  ByteReader reader(data);
  DCAPE_ASSIGN_OR_RETURN(int32_t partition, reader.GetI32());
  DCAPE_ASSIGN_OR_RETURN(int32_t raw_streams, reader.GetI32());
  DCAPE_ASSIGN_OR_RETURN(int32_t num_streams, CheckedStreamCount(raw_streams));
  PartitionGroup group(partition, num_streams);
  DCAPE_ASSIGN_OR_RETURN(group.outputs_, reader.GetI64());
  for (int s = 0; s < num_streams; ++s) {
    DCAPE_ASSIGN_OR_RETURN(int64_t stream_tuples, reader.GetI64());
    for (int64_t i = 0; i < stream_tuples; ++i) {
      DCAPE_ASSIGN_OR_RETURN(Tuple t, DecodeTuple(&reader));
      if (t.stream_id != s) {
        return Status::InvalidArgument(
            "tuple stream id does not match its serialized section");
      }
      group.InsertOnly(t);
    }
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after partition group");
  }
  return group;
}

std::vector<JoinKey> PartitionGroup::SortedKeys() const {
  std::vector<JoinKey> keys;
  keys.reserve(static_cast<size_t>(index_.size()));
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below.
  for (size_t slot : index_) keys.push_back(index_.key(slot));
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<JoinKey> PartitionGroup::SortedKeysForStream(
    StreamId stream) const {
  DCAPE_CHECK_GE(stream, 0);
  DCAPE_CHECK_LT(stream, num_streams_);
  std::vector<JoinKey> keys;
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below; the cursor walks keys ascending, not in slot order.
  for (size_t slot : index_) {
    if (index_.first(slot, stream) != kNoRow) keys.push_back(index_.key(slot));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

PartitionGroup::RowChain PartitionGroup::KeyTuples(JoinKey key,
                                                   StreamId stream) const {
  DCAPE_CHECK_GE(stream, 0);
  DCAPE_CHECK_LT(stream, num_streams_);
  const size_t slot = index_.Find(key);
  return RowChain(this, slot == JoinKeyIndex::kNoSlot
                            ? kNoRow
                            : index_.first(slot, stream));
}

}  // namespace dcape
