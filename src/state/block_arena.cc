#include "state/block_arena.h"

namespace dcape {

uint32_t PayloadArena::StoreRun(std::string_view bytes) {
  DCAPE_CHECK_LE(bytes.size(), size_t{UINT32_MAX});
  DCAPE_CHECK_LT(runs_.size(), size_t{UINT32_MAX});
  auto run = std::make_unique_for_overwrite<char[]>(bytes.size());
  std::memcpy(run.get(), bytes.data(), bytes.size());
  runs_.push_back(std::move(run));
  run_bytes_ += static_cast<int64_t>(bytes.size());
  return static_cast<uint32_t>(runs_.size() - 1);
}

uint32_t PayloadArena::Compaction::Slide(uint32_t handle, uint32_t size) {
  if (size > kBlockBytes) {
    // Kept runs keep their order; a run's bytes never move.
    DCAPE_CHECK_GE(handle, runs_);
    if (handle != runs_) {
      arena_->runs_[runs_] = std::move(arena_->runs_[handle]);
    }
    run_bytes_ += size;
    return static_cast<uint32_t>(runs_++);
  }
  // The same placement rule as the payloads' first allotment, over a
  // prefix that only lost payloads, so every kept payload lands at or
  // before where it was.
  const size_t at = BlockArena<char, kBlockBits>::Place(end_, size);
  DCAPE_CHECK_LE(at, size_t{handle});
  if (size > 0 && at != handle) {
    std::memmove(&arena_->blocks_[at], &arena_->blocks_[handle], size);
  }
  end_ = at + size;
  return static_cast<uint32_t>(at);
}

void PayloadArena::Compaction::Seal() {
  arena_->blocks_.Truncate(end_);
  arena_->runs_.resize(runs_);
  arena_->run_bytes_ = run_bytes_;
}

}  // namespace dcape
