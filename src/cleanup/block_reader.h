#ifndef DCAPE_CLEANUP_BLOCK_READER_H_
#define DCAPE_CLEANUP_BLOCK_READER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "state/partition_group.h"

namespace dcape {

/// One generation member as the cleanup merge sees it: everything a
/// join result needs except the payload, which the streaming decoders
/// skip without materializing.
struct MemberRef {
  int64_t seq = 0;
  int64_t value = 0;
  int64_t category = 0;
  Tick timestamp = 0;
};

/// Byte accounting for the streaming cleanup: every block buffer,
/// decode window, and current-key member list charges here, so tests
/// can assert peak resident cleanup memory stays under the block budget
/// while the spilled input is arbitrarily larger. Shared across all
/// partition lanes; `peak()` therefore depends on lane interleaving and
/// is observability-only — never compare it across runs. `current()`
/// must return to 0 at quiescence (the no-leak invariant).
class MemoryTracker {
 public:
  void Add(int64_t delta) {
    const int64_t now =
        current_.fetch_add(delta, std::memory_order_relaxed) + delta;
    int64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }

  int64_t current() const { return current_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
};

/// Block-level I/O counters of one cleanup run, shared by every lane.
/// Both are pure functions of the segment layouts, the block size and
/// the deterministic fault hash, so they fold bit-identically across
/// thread counts.
struct BlockIoStats {
  std::atomic<int64_t> blocks_read{0};
  std::atomic<int64_t> retries{0};
};

/// Sequential decoder over one byte range of one spill segment (the
/// `SegmentBlockReader` of the streaming cleanup pipeline): the serde
/// getters the section cursors need, working across block boundaries
/// with a compacting window. When the window runs dry the reader reads
/// the range's next fixed-size block itself, on the lane that merges
/// it, so a cursor holds at most one block plus one partially consumed
/// item. Transient read failures (fault injection) are retried with the
/// attempt number folded into the fault hash, so a bounded retry budget
/// clears any transient fault deterministically.
class BlockedReader {
 public:
  /// Reads `len` bytes at segment offset `offset`. Cleanup lanes call
  /// it concurrently, each for its own partition's ranges.
  using RangeReadFn =
      std::function<StatusOr<std::string>(int64_t offset, int64_t len)>;

  /// Covers [begin, end) of the segment in `block_bytes` steps. Reads
  /// nothing until a getter needs bytes.
  BlockedReader(RangeReadFn read, int64_t begin, int64_t end,
                int64_t block_bytes, MemoryTracker* tracker,
                BlockIoStats* stats);
  /// Releases the window's tracker charge.
  ~BlockedReader();

  BlockedReader(const BlockedReader&) = delete;
  BlockedReader& operator=(const BlockedReader&) = delete;

  [[nodiscard]] StatusOr<uint8_t> GetU8();
  [[nodiscard]] StatusOr<uint32_t> GetU32();
  [[nodiscard]] StatusOr<int32_t> GetI32();
  [[nodiscard]] StatusOr<int64_t> GetI64();
  [[nodiscard]] StatusOr<uint64_t> GetVarint();
  [[nodiscard]] StatusOr<int64_t> GetZigzag();
  /// Consumes `n` bytes without decoding them (payload skipping).
  [[nodiscard]] Status Skip(uint64_t n);

  /// Attempts per block before the injected-fault retry budget is
  /// declared exhausted and the read fails for real.
  static constexpr int kMaxAttempts = 12;

 private:
  /// Makes at least `n` unconsumed bytes available in the window,
  /// compacting the consumed prefix first. OutOfRange at end of range.
  [[nodiscard]] Status Ensure(size_t n);
  /// Appends the range's next block to the window and charges it to
  /// the tracker (one byte per byte, released on compaction or
  /// destruction).
  [[nodiscard]] Status ReadNextBlock();

  RangeReadFn read_;
  const int64_t end_;
  const int64_t block_bytes_;
  MemoryTracker* tracker_;
  BlockIoStats* stats_;
  /// Segment offset of the first byte not yet read into the window.
  int64_t next_offset_;
  std::string window_;
  size_t pos_ = 0;
};

/// A cursor yielding one (key, member list) run at a time in strictly
/// ascending key order — the unit the per-partition k-way cleanup merge
/// advances. Usage: repeated Advance(); after an Advance that returns
/// true, key()/members() hold the current run. The members vector
/// charges the MemoryTracker while current and is released on the next
/// Advance. The section cursors fail with InvalidArgument on a run whose
/// key does not exceed the previous run's (a corrupt segment), which the
/// merge would otherwise turn into silently wrong results.
class KeyRunCursor {
 public:
  explicit KeyRunCursor(MemoryTracker* tracker) : tracker_(tracker) {}
  virtual ~KeyRunCursor() { ReleaseMembers(); }

  /// Moves to the next key run. False (with OK status) at end.
  [[nodiscard]] virtual StatusOr<bool> Advance() = 0;

  JoinKey key() const { return key_; }
  const std::vector<MemberRef>& members() const { return members_; }

 protected:
  /// Releases the previous run's tracker charge and clears members_.
  void ReleaseMembers() {
    if (charged_ > 0) {
      tracker_->Add(-charged_);
      charged_ = 0;
    }
    members_.clear();
  }
  /// Charges the current members_ to the tracker.
  void ChargeMembers() {
    charged_ = static_cast<int64_t>(members_.size() * sizeof(MemberRef));
    tracker_->Add(charged_);
  }

  JoinKey key_ = 0;
  std::vector<MemberRef> members_;

 private:
  MemoryTracker* tracker_;
  int64_t charged_ = 0;
};

/// Streaming cursor over one v2 segment section (key-grouped, key-
/// sorted, per-run delta encoding — decode state resets every run, so
/// runs decode independently of everything before them).
class V2SectionCursor : public KeyRunCursor {
 public:
  V2SectionCursor(std::unique_ptr<BlockedReader> reader,
                  MemoryTracker* tracker);

  StatusOr<bool> Advance() override;

 private:
  std::unique_ptr<BlockedReader> reader_;
  uint64_t num_keys_ = 0;
  uint64_t keys_done_ = 0;
  bool header_read_ = false;
};

/// Streaming cursor over one v1 segment section (fixed-width tuples,
/// key-sorted and contiguous per key; a one-tuple lookahead detects run
/// boundaries).
class V1SectionCursor : public KeyRunCursor {
 public:
  V1SectionCursor(std::unique_ptr<BlockedReader> reader, StreamId stream,
                  MemoryTracker* tracker);

  StatusOr<bool> Advance() override;

 private:
  /// Decodes one tuple into pending_*. False at end of section.
  [[nodiscard]] StatusOr<bool> ReadTuple();

  std::unique_ptr<BlockedReader> reader_;
  const StreamId stream_;
  int64_t tuples_left_ = -1;  // -1: header not read yet
  bool has_pending_ = false;
  /// key_ holds an earlier run's key, which the next run must exceed.
  bool has_run_ = false;
  JoinKey pending_key_ = 0;
  MemberRef pending_member_;
};

/// Cursor over one stream of a memory-resident PartitionGroup (the
/// engines' unspilled remainders). The group's own storage is not
/// charged to the tracker — only the current key's extracted member
/// list is cleanup-owned memory.
class MemoryGenCursor : public KeyRunCursor {
 public:
  MemoryGenCursor(const PartitionGroup* group, StreamId stream,
                  MemoryTracker* tracker);

  StatusOr<bool> Advance() override;

 private:
  const PartitionGroup* group_;
  const StreamId stream_;
  std::vector<JoinKey> keys_;
  size_t next_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_CLEANUP_BLOCK_READER_H_
