#ifndef DCAPE_CLEANUP_BLOCK_READER_H_
#define DCAPE_CLEANUP_BLOCK_READER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/virtual_clock.h"
#include "state/partition_group.h"
#include "storage/io_executor.h"

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

/// Block-level I/O counters for one partition's cursors. issued /
/// completed / retries are pure functions of the segment layout (and
/// the deterministic fault hash), so they fold bit-identically across
/// thread counts; stalls counts consumer waits on a block that had not
/// landed yet and is wall-dependent observability.
struct BlockIoStats {
  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> retries{0};
  std::atomic<int64_t> stalls{0};
};

/// Double-buffered sequential block fetcher over one byte range of one
/// spill segment (the `SegmentBlockReader` of the streaming cleanup
/// pipeline). Two fixed-size blocks are kept in flight on the shared
/// prefetch IoExecutor; consuming block i issues block i+2, so decode
/// and disk I/O overlap while resident bytes stay at O(2 blocks) per
/// cursor. Transient read failures (fault injection) are retried inside
/// the job with the attempt number folded into the fault hash, so a
/// bounded retry budget clears any transient fault deterministically.
class BlockFetcher {
 public:
  /// Reads `len` bytes at segment offset `offset`. Must be safe to call
  /// from the prefetch thread concurrently with other reads.
  using RangeReadFn =
      std::function<StatusOr<std::string>(int64_t offset, int64_t len)>;

  /// Covers [begin, end) of the segment in `block_bytes` steps. Issues
  /// the first two blocks immediately.
  BlockFetcher(IoExecutor* io, RangeReadFn read, int64_t begin, int64_t end,
               int64_t block_bytes, MemoryTracker* tracker,
               BlockIoStats* stats);
  /// Waits for in-flight jobs and releases any unconsumed blocks.
  ~BlockFetcher();

  BlockFetcher(const BlockFetcher&) = delete;
  BlockFetcher& operator=(const BlockFetcher&) = delete;

  /// True when every block of the range has been handed out.
  bool Done() const;

  /// Blocks until the next sequential block has landed and returns it.
  /// The caller inherits the block's MemoryTracker charge (one byte per
  /// returned byte) and must release it as the bytes are consumed.
  [[nodiscard]] StatusOr<std::string> Next();

  /// Attempts per block before the injected-fault retry budget is
  /// declared exhausted and the read fails for real.
  static constexpr int kMaxAttempts = 12;

 private:
  struct Slot {
    bool ready = false;
    Status status = Status::OK();
    std::string data;
  };

  void Issue(int64_t block_index) REQUIRES(mu_);

  IoExecutor* io_;
  RangeReadFn read_;
  const int64_t begin_;
  const int64_t end_;
  const int64_t block_bytes_;
  const int64_t num_blocks_;
  MemoryTracker* tracker_;
  BlockIoStats* stats_;

  mutable Mutex mu_;
  CondVar ready_cv_;
  std::vector<Slot> slots_ GUARDED_BY(mu_);  // ring of 2
  int64_t next_issue_ GUARDED_BY(mu_) = 0;
  int64_t next_consume_ GUARDED_BY(mu_) = 0;
  int in_flight_ GUARDED_BY(mu_) = 0;
};

/// Primitive decoder over a BlockFetcher's byte stream: the serde
/// getters the section cursors need, working across block boundaries
/// with a compacting window so resident bytes stay bounded by the
/// in-flight blocks plus one partially consumed item.
class BlockedReader {
 public:
  BlockedReader(std::unique_ptr<BlockFetcher> fetcher, MemoryTracker* tracker);
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

  /// True when the window and the fetcher are both exhausted.
  bool exhausted() const;

 private:
  /// Makes at least `n` unconsumed bytes available in the window,
  /// compacting the consumed prefix first. OutOfRange at end of range.
  [[nodiscard]] Status Ensure(size_t n);

  std::unique_ptr<BlockFetcher> fetcher_;
  MemoryTracker* tracker_;
  std::string window_;
  size_t pos_ = 0;
};

/// A cursor yielding one (key, member list) run at a time in ascending
/// key order — the unit the per-partition k-way cleanup merge advances.
/// Usage: repeated Advance(); after an Advance that returns true,
/// key()/members() hold the current run. The members vector charges the
/// MemoryTracker while current and is released on the next Advance.
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
