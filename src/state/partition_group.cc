#include "state/partition_group.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <iterator>
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
    : partition_(partition), num_streams_(num_streams) {
  DCAPE_CHECK_GE(num_streams, 2);
  DCAPE_CHECK_LE(num_streams, kMaxStreams);
}

PartitionGroup::KeyEntry& PartitionGroup::EntryFor(JoinKey key) {
  return table_.try_emplace(key, num_streams_).first->second;
}

void PartitionGroup::Append(KeyEntry* entry, Tuple&& tuple) {
  bytes_ += tuple.ByteSize();
  tuple_count_ += 1;
  entry->streams[static_cast<size_t>(tuple.stream_id)].push_back(
      std::move(tuple));
}

int64_t PartitionGroup::ProbeAndInsert(Tuple tuple,
                                       std::vector<JoinResult>* results,
                                       const ResultProjection* projection,
                                       Tick window_ticks) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);
  // The arrival's one hash lookup: the key's entry serves the probe, the
  // insert and the access clock.
  KeyEntry& entry = EntryFor(tuple.join_key);
  const int own = tuple.stream_id;

  // An m-way result needs a partner from every other stream.
  bool all_matched = true;
  for (int s = 0; s < num_streams_ && all_matched; ++s) {
    all_matched = s == own || !entry.streams[static_cast<size_t>(s)].empty();
  }

  int64_t produced = 0;
  if (all_matched) {
    // Enumerate the cross product of the other streams' tuples. The
    // result (inline member seqs) and the odometer cursor live on the
    // stack, so steady-state probes never allocate.
    JoinResult result;
    result.partition = partition_;
    result.join_key = tuple.join_key;
    result.member_seqs.assign(static_cast<size_t>(num_streams_), 0);
    result.member_seqs[static_cast<size_t>(own)] = tuple.seq;

    std::array<size_t, kMaxStreams> cursor{};
    while (true) {
      int64_t agg = 0;
      bool first_member = true;
      Tick min_ts = tuple.timestamp;
      Tick max_ts = tuple.timestamp;
      for (int s = 0; s < num_streams_; ++s) {
        const size_t i = static_cast<size_t>(s);
        const Tuple& member =
            (s == own) ? tuple : entry.streams[i][cursor[i]];
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

      // Odometer increment over the non-arriving streams.
      int s = num_streams_ - 1;
      for (; s >= 0; --s) {
        if (s == own) continue;
        size_t& c = cursor[static_cast<size_t>(s)];
        if (++c < entry.streams[static_cast<size_t>(s)].size()) break;
        c = 0;
      }
      if (s < 0) break;
    }
  }

  Append(&entry, std::move(tuple));
  entry.last_touch = ++access_clock_;
  outputs_ += produced;
  return produced;
}

int64_t PartitionGroup::EvictBefore(Tick cutoff, PartitionGroup* evicted) {
  DCAPE_CHECK(evicted != nullptr);
  DCAPE_CHECK_EQ(evicted->partition(), partition_);
  DCAPE_CHECK_EQ(evicted->num_streams(), num_streams_);
  int64_t moved = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    KeyEntry* expired = nullptr;
    bool drained = true;
    for (std::vector<Tuple>& tuples : it->second.streams) {
      // In-place stable compaction: expired tuples move to `evicted`,
      // survivors slide left. No temporary vector per key.
      size_t write = 0;
      for (size_t read = 0; read < tuples.size(); ++read) {
        Tuple& t = tuples[read];
        if (t.timestamp < cutoff) {
          if (expired == nullptr) expired = &evicted->EntryFor(it->first);
          bytes_ -= t.ByteSize();
          tuple_count_ -= 1;
          ++moved;
          evicted->Append(expired, std::move(t));
        } else {
          if (write != read) tuples[write] = std::move(t);
          ++write;
        }
      }
      tuples.resize(write);
      drained = drained && write == 0;
    }
    // A key with no tuples left drops out, access clock included.
    it = drained ? table_.erase(it) : std::next(it);
  }
  return moved;
}

void PartitionGroup::InsertOnly(const Tuple& tuple) {
  InsertOnly(Tuple(tuple));
}

void PartitionGroup::InsertOnly(Tuple&& tuple) {
  DCAPE_CHECK_GE(tuple.stream_id, 0);
  DCAPE_CHECK_LT(tuple.stream_id, num_streams_);
  Append(&EntryFor(tuple.join_key), std::move(tuple));
}

void PartitionGroup::Absorb(KeyEntry* into, KeyEntry* from) {
  for (size_t s = 0; s < into->streams.size(); ++s) {
    std::vector<Tuple>& dst = into->streams[s];
    std::vector<Tuple>& src = from->streams[s];
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  }
  into->last_touch = std::max(into->last_touch, from->last_touch);
}

void PartitionGroup::MergeFrom(PartitionGroup&& other) {
  DCAPE_CHECK_EQ(partition_, other.partition_);
  DCAPE_CHECK_EQ(num_streams_, other.num_streams_);
  // Keys only `other` holds move over as whole entries; what stays
  // behind in `other` are the shared keys, whose tuples append behind
  // this group's. Access clocks merge by max: both inputs are
  // deterministic, so the merged coldness ordering is too. A
  // deserialized generation has every clock at 0 and ranks coldest,
  // which is the right prior.
  table_.merge(other.table_);
  for (auto& [key, theirs] : other.table_) {
    Absorb(&table_.find(key)->second, &theirs);
  }
  bytes_ += other.bytes_;
  tuple_count_ += other.tuple_count_;
  outputs_ += other.outputs_;
  access_clock_ = std::max(access_clock_, other.access_clock_);
  other.table_.clear();
  other.bytes_ = 0;
  other.tuple_count_ = 0;
  other.outputs_ = 0;
  other.access_clock_ = 0;
}

int64_t PartitionGroup::MoveEntryTo(Table::iterator it, PartitionGroup* dst) {
  int64_t moved_bytes = 0;
  int64_t moved_tuples = 0;
  for (const std::vector<Tuple>& tuples : it->second.streams) {
    for (const Tuple& t : tuples) moved_bytes += t.ByteSize();
    moved_tuples += static_cast<int64_t>(tuples.size());
  }
  const int64_t touch = it->second.last_touch;
  auto placed = dst->table_.insert(table_.extract(it));
  if (!placed.inserted) Absorb(&placed.position->second, &placed.node.mapped());
  bytes_ -= moved_bytes;
  tuple_count_ -= moved_tuples;
  dst->bytes_ += moved_bytes;
  dst->tuple_count_ += moved_tuples;
  dst->access_clock_ = std::max(dst->access_clock_, touch);
  return moved_bytes;
}

int64_t PartitionGroup::SplitColdest(int64_t target_bytes,
                                     PartitionGroup* cold) {
  DCAPE_CHECK(cold != nullptr);
  DCAPE_CHECK_EQ(cold->partition(), partition_);
  DCAPE_CHECK_EQ(cold->num_streams(), num_streams_);
  if (target_bytes <= 0 || table_.size() < 2) return 0;

  // Coldest first: ascending (last_touch, key) is a total order over the
  // entries, so the move order does not depend on hash order. Moving an
  // entry invalidates no other entry's iterator.
  std::vector<Table::iterator> order;
  order.reserve(table_.size());
  for (auto it = table_.begin(); it != table_.end(); ++it) {
    order.push_back(it);
  }
  std::sort(order.begin(), order.end(),
            [](Table::iterator a, Table::iterator b) {
              if (a->second.last_touch != b->second.last_touch) {
                return a->second.last_touch < b->second.last_touch;
              }
              return a->first < b->first;
            });

  int64_t moved = 0;
  // The hottest key (last candidate) never moves: the residue must stay
  // probe-able in memory.
  for (size_t i = 0; i + 1 < order.size() && moved < target_bytes; ++i) {
    moved += MoveEntryTo(order[i], cold);
  }
  return moved;
}

PartitionGroup PartitionGroup::SplitBySecondaryHashBit(int bit) {
  DCAPE_CHECK_GE(bit, 0);
  DCAPE_CHECK_LT(bit, 64);
  PartitionGroup high(partition_, num_streams_);
  // Whole entries move into a fresh group, so the visiting order decides
  // nothing about either side's state.
  for (auto it = table_.begin(); it != table_.end();) {
    const auto next = std::next(it);
    if ((SecondaryKeyHash(it->first) >> bit) & 1ULL) MoveEntryTo(it, &high);
    it = next;
  }
  return high;
}

int64_t PartitionGroup::SerializedByteSize() const {
  // v1 layout: header (partition i32 + num_streams i32 + outputs i64),
  // one i64 tuple count per stream, then the tuples; bytes_ tracks
  // exactly the tuples' raw serialized size (Tuple::ByteSize ==
  // TupleSerializedSize).
  return 16 + 8 * static_cast<int64_t>(num_streams_) + bytes_;
}

std::vector<const PartitionGroup::Table::value_type*>
PartitionGroup::SortedEntries() const {
  std::vector<const Table::value_type*> entries;
  entries.reserve(table_.size());
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below; readers walk keys ascending, not hash-ordered.
  for (const auto& entry : table_) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return entries;
}

void PartitionGroup::Serialize(std::string* out, SegmentFormat format) const {
  out->reserve(out->size() + static_cast<size_t>(SerializedByteSize()));
  ByteWriter writer(out);
  // Each stream's section: its tuples in (key, arrival) order. Keys go
  // ascending, never in hash order: that depends on the standard
  // library's table layout and on the group's insertion history, so the
  // same logical state would encode to different bytes on the spill
  // sender and on a receiver that merged it. Sorting makes the blob a
  // pure function of the state.
  const std::vector<const Table::value_type*> entries = SortedEntries();
  if (format == SegmentFormat::kV1) {
    writer.PutI32(partition_);
    writer.PutI32(num_streams_);
    writer.PutI64(outputs_);
    for (size_t s = 0; s < static_cast<size_t>(num_streams_); ++s) {
      int64_t stream_tuples = 0;
      for (const auto* entry : entries) {
        stream_tuples += static_cast<int64_t>(entry->second.streams[s].size());
      }
      writer.PutI64(stream_tuples);
      for (const auto* entry : entries) {
        for (const Tuple& t : entry->second.streams[s]) EncodeTuple(t, out);
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
  for (size_t s = 0; s < static_cast<size_t>(num_streams_); ++s) {
    uint64_t runs = 0;
    for (const auto* entry : entries) {
      runs += entry->second.streams[s].empty() ? 0 : 1;
    }
    writer.PutVarint(runs);
    for (const auto* entry : entries) {
      const std::vector<Tuple>& run = entry->second.streams[s];
      if (run.empty()) continue;
      writer.PutZigzag(entry->first);
      writer.PutVarint(run.size());
      int64_t prev_seq = 0;
      Tick prev_ts = 0;
      for (const Tuple& t : run) {
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
        // One lookup per run: the entry is created with the run's first
        // tuple, so an empty run leaves no entry behind.
        KeyEntry* entry = nullptr;
        int64_t prev_seq = 0;
        Tick prev_ts = 0;
        for (uint64_t i = 0; i < run_length; ++i) {
          Tuple t;
          t.stream_id = s;
          t.join_key = key;
          DCAPE_ASSIGN_OR_RETURN(int64_t seq_delta, reader.GetZigzag());
          t.seq = prev_seq + seq_delta;
          DCAPE_ASSIGN_OR_RETURN(Tick ts_delta, reader.GetZigzag());
          t.timestamp = prev_ts + ts_delta;
          DCAPE_ASSIGN_OR_RETURN(t.value, reader.GetZigzag());
          DCAPE_ASSIGN_OR_RETURN(t.category, reader.GetZigzag());
          DCAPE_ASSIGN_OR_RETURN(t.payload, reader.GetVString());
          prev_seq = t.seq;
          prev_ts = t.timestamp;
          if (entry == nullptr) entry = &group.EntryFor(key);
          group.Append(entry, std::move(t));
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
      group.InsertOnly(std::move(t));
    }
  }
  if (!reader.exhausted()) {
    return Status::InvalidArgument("trailing bytes after partition group");
  }
  return group;
}

std::vector<JoinKey> PartitionGroup::SortedKeys() const {
  std::vector<JoinKey> keys;
  keys.reserve(table_.size());
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below.
  for (const auto& [key, entry] : table_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<JoinKey> PartitionGroup::SortedKeysForStream(
    StreamId stream) const {
  DCAPE_CHECK_GE(stream, 0);
  DCAPE_CHECK_LT(stream, num_streams_);
  std::vector<JoinKey> keys;
  // dcape-lint: allow(unordered-net) — iteration order is erased by the
  // sort below; the cursor walks keys ascending, not hash-ordered.
  for (const auto& [key, entry] : table_) {
    if (!entry.streams[static_cast<size_t>(stream)].empty()) {
      keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::span<const Tuple> PartitionGroup::KeyTuples(JoinKey key,
                                                 StreamId stream) const {
  DCAPE_CHECK_GE(stream, 0);
  DCAPE_CHECK_LT(stream, num_streams_);
  const auto it = table_.find(key);
  if (it == table_.end()) return {};
  return it->second.streams[static_cast<size_t>(stream)];
}

}  // namespace dcape
