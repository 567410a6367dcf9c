#include "cleanup/block_reader.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "tuple/tuple.h"

namespace dcape {

namespace {

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace

BlockFetcher::BlockFetcher(IoExecutor* io, RangeReadFn read, int64_t begin,
                           int64_t end, int64_t block_bytes,
                           MemoryTracker* tracker, BlockIoStats* stats)
    : io_(io),
      read_(std::move(read)),
      begin_(begin),
      end_(end),
      block_bytes_(block_bytes),
      num_blocks_(block_bytes > 0 ? (end - begin + block_bytes - 1) /
                                        block_bytes
                                  : 0),
      tracker_(tracker),
      stats_(stats) {
  DCAPE_CHECK(io_ != nullptr);
  DCAPE_CHECK_GE(begin_, 0);
  DCAPE_CHECK_GE(end_, begin_);
  DCAPE_CHECK_GT(block_bytes_, 0);
  slots_.resize(2);
  MutexLock lock(mu_);
  while (next_issue_ < num_blocks_ && next_issue_ < 2) {
    Issue(next_issue_);
    ++next_issue_;
  }
}

BlockFetcher::~BlockFetcher() {
  MutexLock lock(mu_);
  while (in_flight_ > 0) ready_cv_.Wait(mu_);
  // Release any block that landed but was never consumed (a cursor that
  // failed or a partition merge cut short by an error).
  for (Slot& slot : slots_) {
    if (slot.ready && slot.status.ok()) {
      tracker_->Add(-static_cast<int64_t>(slot.data.size()));
    }
  }
}

bool BlockFetcher::Done() const {
  MutexLock lock(mu_);
  return next_consume_ == num_blocks_;
}

void BlockFetcher::Issue(int64_t block_index) {
  const int64_t offset = begin_ + block_index * block_bytes_;
  const int64_t len = std::min(block_bytes_, end_ - offset);
  Slot* slot = &slots_[static_cast<size_t>(block_index % 2)];
  DCAPE_CHECK(!slot->ready);
  ++in_flight_;
  stats_->issued.fetch_add(1, std::memory_order_relaxed);
  io_->Submit([this, slot, offset, len] {
    StatusOr<std::string> block = Status::Internal("block read not attempted");
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      block = read_(offset, len);
      if (block.ok() && static_cast<int64_t>(block->size()) == len) break;
      if (block.ok()) {
        // A short block is injected (or real) corruption: same retry
        // path as a failed read.
        block = Status::Internal("short block read at offset " +
                                 std::to_string(offset));
      }
      stats_->retries.fetch_add(1, std::memory_order_relaxed);
    }
    MutexLock lock(mu_);
    if (block.ok()) {
      tracker_->Add(static_cast<int64_t>(block->size()));
      stats_->completed.fetch_add(1, std::memory_order_relaxed);
      slot->data = std::move(block).value();
      slot->status = Status::OK();
    } else {
      slot->status = block.status();
    }
    slot->ready = true;
    --in_flight_;
    ready_cv_.NotifyAll();
  });
}

StatusOr<std::string> BlockFetcher::Next() {
  MutexLock lock(mu_);
  DCAPE_CHECK_LT(next_consume_, num_blocks_);
  Slot* slot = &slots_[static_cast<size_t>(next_consume_ % 2)];
  if (!slot->ready) {
    stats_->stalls.fetch_add(1, std::memory_order_relaxed);
    while (!slot->ready) ready_cv_.Wait(mu_);
  }
  if (!slot->status.ok()) {
    // Leave the slot as-is: an errored fetcher is torn down, not
    // consumed further.
    return slot->status;
  }
  std::string data = std::move(slot->data);
  slot->data.clear();
  slot->ready = false;
  ++next_consume_;
  if (next_issue_ < num_blocks_) {
    Issue(next_issue_);
    ++next_issue_;
  }
  return data;
}

BlockedReader::BlockedReader(std::unique_ptr<BlockFetcher> fetcher,
                             MemoryTracker* tracker)
    : fetcher_(std::move(fetcher)), tracker_(tracker) {}

BlockedReader::~BlockedReader() {
  tracker_->Add(-static_cast<int64_t>(window_.size()));
}

bool BlockedReader::exhausted() const {
  return pos_ == window_.size() && fetcher_->Done();
}

Status BlockedReader::Ensure(size_t n) {
  while (window_.size() - pos_ < n) {
    if (fetcher_->Done()) {
      return Status::OutOfRange("truncated input reading spill section");
    }
    if (pos_ > 0) {
      // Compact the consumed prefix so the window stays bounded by the
      // in-flight blocks plus one partially consumed item.
      tracker_->Add(-static_cast<int64_t>(pos_));
      window_.erase(0, pos_);
      pos_ = 0;
    }
    DCAPE_ASSIGN_OR_RETURN(std::string block, fetcher_->Next());
    // The block's tracker charge transfers to the window (released on
    // compaction / destruction).
    window_ += block;
  }
  return Status::OK();
}

StatusOr<uint8_t> BlockedReader::GetU8() {
  DCAPE_RETURN_IF_ERROR(Ensure(1));
  return static_cast<uint8_t>(window_[pos_++]);
}

StatusOr<uint32_t> BlockedReader::GetU32() {
  DCAPE_RETURN_IF_ERROR(Ensure(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(window_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

StatusOr<int32_t> BlockedReader::GetI32() {
  DCAPE_ASSIGN_OR_RETURN(uint32_t v, GetU32());
  return static_cast<int32_t>(v);
}

StatusOr<int64_t> BlockedReader::GetI64() {
  DCAPE_RETURN_IF_ERROR(Ensure(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(window_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return static_cast<int64_t>(v);
}

StatusOr<uint64_t> BlockedReader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    DCAPE_RETURN_IF_ERROR(Ensure(1));
    const uint8_t byte = static_cast<uint8_t>(window_[pos_++]);
    if (shift == 63 && (byte & 0xFE) != 0) {
      return Status::InvalidArgument("varint overflows 64 bits");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) {
      return Status::InvalidArgument("varint longer than 10 bytes");
    }
  }
}

StatusOr<int64_t> BlockedReader::GetZigzag() {
  DCAPE_ASSIGN_OR_RETURN(uint64_t v, GetVarint());
  return ZigzagDecode(v);
}

Status BlockedReader::Skip(uint64_t n) {
  while (n > 0) {
    size_t avail = window_.size() - pos_;
    if (avail == 0) {
      DCAPE_RETURN_IF_ERROR(Ensure(1));
      avail = window_.size() - pos_;
    }
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(avail, n));
    pos_ += take;
    n -= take;
  }
  return Status::OK();
}

V2SectionCursor::V2SectionCursor(std::unique_ptr<BlockedReader> reader,
                                 MemoryTracker* tracker)
    : KeyRunCursor(tracker), reader_(std::move(reader)) {}

StatusOr<bool> V2SectionCursor::Advance() {
  ReleaseMembers();
  if (!header_read_) {
    DCAPE_ASSIGN_OR_RETURN(num_keys_, reader_->GetVarint());
    header_read_ = true;
  }
  if (keys_done_ == num_keys_) return false;
  DCAPE_ASSIGN_OR_RETURN(key_, reader_->GetZigzag());
  DCAPE_ASSIGN_OR_RETURN(uint64_t run_length, reader_->GetVarint());
  members_.reserve(static_cast<size_t>(std::min<uint64_t>(run_length, 4096)));
  int64_t prev_seq = 0;
  Tick prev_ts = 0;
  for (uint64_t i = 0; i < run_length; ++i) {
    MemberRef m;
    DCAPE_ASSIGN_OR_RETURN(int64_t seq_delta, reader_->GetZigzag());
    m.seq = prev_seq + seq_delta;
    DCAPE_ASSIGN_OR_RETURN(Tick ts_delta, reader_->GetZigzag());
    m.timestamp = prev_ts + ts_delta;
    DCAPE_ASSIGN_OR_RETURN(m.value, reader_->GetZigzag());
    DCAPE_ASSIGN_OR_RETURN(m.category, reader_->GetZigzag());
    DCAPE_ASSIGN_OR_RETURN(uint64_t payload_len, reader_->GetVarint());
    DCAPE_RETURN_IF_ERROR(reader_->Skip(payload_len));
    prev_seq = m.seq;
    prev_ts = m.timestamp;
    members_.push_back(m);
  }
  ++keys_done_;
  ChargeMembers();
  return true;
}

V1SectionCursor::V1SectionCursor(std::unique_ptr<BlockedReader> reader,
                                 StreamId stream, MemoryTracker* tracker)
    : KeyRunCursor(tracker), reader_(std::move(reader)), stream_(stream) {}

StatusOr<bool> V1SectionCursor::ReadTuple() {
  if (tuples_left_ == 0) return false;
  DCAPE_ASSIGN_OR_RETURN(int32_t stream_id, reader_->GetI32());
  if (stream_id != stream_) {
    return Status::InvalidArgument(
        "tuple stream id does not match its serialized section");
  }
  DCAPE_ASSIGN_OR_RETURN(pending_member_.seq, reader_->GetI64());
  DCAPE_ASSIGN_OR_RETURN(pending_key_, reader_->GetI64());
  DCAPE_ASSIGN_OR_RETURN(pending_member_.timestamp, reader_->GetI64());
  DCAPE_ASSIGN_OR_RETURN(pending_member_.value, reader_->GetI64());
  DCAPE_ASSIGN_OR_RETURN(pending_member_.category, reader_->GetI64());
  DCAPE_ASSIGN_OR_RETURN(uint32_t payload_len, reader_->GetU32());
  DCAPE_RETURN_IF_ERROR(reader_->Skip(payload_len));
  --tuples_left_;
  has_pending_ = true;
  return true;
}

StatusOr<bool> V1SectionCursor::Advance() {
  ReleaseMembers();
  if (tuples_left_ < 0) {
    DCAPE_ASSIGN_OR_RETURN(tuples_left_, reader_->GetI64());
    if (tuples_left_ < 0) {
      return Status::InvalidArgument("negative v1 section tuple count");
    }
    if (tuples_left_ > 0) {
      DCAPE_ASSIGN_OR_RETURN(bool read, ReadTuple());
      DCAPE_CHECK(read);
    }
  }
  if (!has_pending_) return false;
  key_ = pending_key_;
  members_.push_back(pending_member_);
  has_pending_ = false;
  while (true) {
    DCAPE_ASSIGN_OR_RETURN(bool read, ReadTuple());
    if (!read) break;
    if (pending_key_ != key_) break;  // next run starts here (lookahead)
    members_.push_back(pending_member_);
    has_pending_ = false;
  }
  ChargeMembers();
  return true;
}

MemoryGenCursor::MemoryGenCursor(const PartitionGroup* group, StreamId stream,
                                 MemoryTracker* tracker)
    : KeyRunCursor(tracker),
      group_(group),
      stream_(stream),
      keys_(group->SortedKeysForStream(stream)) {}

StatusOr<bool> MemoryGenCursor::Advance() {
  ReleaseMembers();
  if (next_ == keys_.size()) return false;
  key_ = keys_[next_++];
  const PartitionGroup::RowChain tuples = group_->KeyTuples(key_, stream_);
  DCAPE_CHECK(!tuples.empty());
  for (const PartitionGroup::RowRef t : tuples) {
    members_.push_back(MemberRef{t.seq, t.value, t.category, t.timestamp});
  }
  ChargeMembers();
  return true;
}

}  // namespace dcape
