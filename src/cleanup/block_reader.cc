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

BlockedReader::BlockedReader(RangeReadFn read, int64_t begin, int64_t end,
                             int64_t block_bytes, MemoryTracker* tracker,
                             BlockIoStats* stats)
    : read_(std::move(read)),
      end_(end),
      block_bytes_(block_bytes),
      tracker_(tracker),
      stats_(stats),
      next_offset_(begin) {
  DCAPE_CHECK_GE(begin, 0);
  DCAPE_CHECK_GE(end_, begin);
  DCAPE_CHECK_GT(block_bytes_, 0);
}

BlockedReader::~BlockedReader() {
  tracker_->Add(-static_cast<int64_t>(window_.size()));
}

Status BlockedReader::Ensure(size_t n) {
  while (window_.size() - pos_ < n) {
    if (next_offset_ == end_) {
      return Status::OutOfRange("truncated input reading spill section");
    }
    if (pos_ > 0) {
      // Compact the consumed prefix so the window stays bounded by one
      // block plus one partially consumed item.
      tracker_->Add(-static_cast<int64_t>(pos_));
      window_.erase(0, pos_);
      pos_ = 0;
    }
    DCAPE_RETURN_IF_ERROR(ReadNextBlock());
  }
  return Status::OK();
}

Status BlockedReader::ReadNextBlock() {
  const int64_t len = std::min(block_bytes_, end_ - next_offset_);
  StatusOr<std::string> block = Status::Internal("block read not attempted");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    block = read_(next_offset_, len);
    if (block.ok() && static_cast<int64_t>(block->size()) == len) break;
    if (block.ok()) {
      // A short block is injected (or real) corruption: same retry path
      // as a failed read.
      block = Status::Internal("short block read at offset " +
                               std::to_string(next_offset_));
    }
    stats_->retries.fetch_add(1, std::memory_order_relaxed);
  }
  DCAPE_RETURN_IF_ERROR(block.status());
  tracker_->Add(len);
  stats_->blocks_read.fetch_add(1, std::memory_order_relaxed);
  window_ += *block;
  next_offset_ += len;
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
