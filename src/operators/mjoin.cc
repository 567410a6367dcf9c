#include "operators/mjoin.h"

#include <algorithm>

namespace dcape {

StatusOr<MJoin::SpillOutcome> MJoin::SpillGradual(
    const std::vector<SpillRequest>& plan, Tick now, int64_t max_piece_bytes,
    int max_depth) {
  if (spill_store_ == nullptr) {
    return Status::FailedPrecondition(
        "this MJoin instance has no spill store");
  }
  SpillOutcome outcome;
  for (const SpillRequest& request : plan) {
    std::vector<StateManager::ExtractedGroup> pieces = state_.ExtractColdState(
        request.partition, request.bytes, max_piece_bytes, max_depth);
    if (pieces.empty()) continue;  // locked or already gone
    const bool partial = pieces.front().partial;
    if (static_cast<int>(pieces.size()) > 1) {
      outcome.subpartition_splits += static_cast<int>(pieces.size()) - 1;
    }
    int spilled_pieces = 0;
    for (StateManager::ExtractedGroup& piece : pieces) {
      StatusOr<Tick> io_ticks = spill_store_->WriteSegment(
          piece.partition, now, piece.blob, piece.tuple_count,
          /*evicted=*/false, piece.raw_bytes, piece.partial, piece.sub_depth);
      if (!io_ticks.ok()) {
        // The piece is already out of the state manager, so losing it
        // would drop future (and cleanup) results. Reinstalling our own
        // blob cannot fail; a partial piece merges back into the residue,
        // and a later spill check retries once the disk recovers.
        DCAPE_CHECK(state_.InstallGroup(piece.blob).ok());
        outcome.failed_groups += 1;
        if (outcome.first_error.ok()) outcome.first_error = io_ticks.status();
        continue;
      }
      outcome.bytes += piece.bytes;
      outcome.tuples += piece.tuple_count;
      outcome.segments += 1;
      outcome.io_ticks += *io_ticks;
      outcome.max_sub_depth = std::max(outcome.max_sub_depth, piece.sub_depth);
      ++spilled_pieces;
    }
    if (spilled_pieces > 0) {
      outcome.groups += 1;
      if (partial) outcome.partial_groups += 1;
      state_.MarkDiskBacked(request.partition);
    }
  }
  return outcome;
}

}  // namespace dcape
