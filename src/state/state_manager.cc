#include "state/state_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dcape {

StateManager::StateManager(int num_streams,
                           std::optional<ResultProjection> projection,
                           Tick window_ticks, SegmentFormat segment_format)
    : num_streams_(num_streams),
      projection_(projection),
      window_ticks_(window_ticks),
      segment_format_(segment_format) {
  DCAPE_CHECK_GE(num_streams, 2);
  if (projection_.has_value()) {
    DCAPE_CHECK_GE(projection_->group_stream, 0);
    DCAPE_CHECK_LT(projection_->group_stream, num_streams);
  }
}

int64_t StateManager::ProcessTuple(PartitionId partition, const Tuple& tuple,
                                   std::vector<JoinResult>* results) {
  auto it = groups_.find(partition);
  if (it == groups_.end()) {
    it = groups_
             .emplace(partition,
                      std::make_unique<PartitionGroup>(partition, num_streams_))
             .first;
  }
  PartitionGroup& group = *it->second;
  const int64_t bytes_before = group.bytes();
  const int64_t resident_before = group.resident_bytes();
  const int64_t produced = group.ProbeAndInsert(
      tuple, results, projection_.has_value() ? &*projection_ : nullptr,
      window_ticks_);
  AddBytes(group.bytes() - bytes_before);
  AddResident(group.resident_bytes() - resident_before);
  total_tuples_ += 1;
  total_outputs_ += produced;
  if (produced == 0 && !disk_backed_.empty() &&
      disk_backed_.count(partition) > 0) {
    // The matching state may sit in a disk generation; record the miss
    // instead of blocking on a read — cleanup owes the deferred result.
    ++cold_probe_misses_;
  }
  return produced;
}

std::vector<StateManager::ExtractedGroup> StateManager::ExtractGroups(
    const std::vector<PartitionId>& partitions) {
  std::vector<ExtractedGroup> extracted;
  extracted.reserve(partitions.size());
  for (PartitionId partition : partitions) {
    auto it = groups_.find(partition);
    if (it == groups_.end()) continue;
    PartitionGroup& group = *it->second;
    ExtractedGroup out;
    out.partition = partition;
    out.bytes = group.bytes();
    out.raw_bytes = group.SerializedByteSize();
    out.tuple_count = group.tuple_count();
    group.Serialize(&out.blob, segment_format_);
    AddBytes(-group.bytes());
    total_tuples_ -= group.tuple_count();
    AddResident(-group.resident_bytes());
    groups_.erase(it);
    extracted.push_back(std::move(out));
  }
  return extracted;
}

StateManager::ExtractedGroup StateManager::SerializePiece(
    PartitionGroup&& piece, bool partial, int sub_depth) {
  ExtractedGroup out;
  out.partition = piece.partition();
  out.bytes = piece.bytes();
  out.raw_bytes = piece.SerializedByteSize();
  out.tuple_count = piece.tuple_count();
  out.partial = partial;
  out.sub_depth = sub_depth;
  piece.Serialize(&out.blob, segment_format_);
  return out;
}

namespace {

/// Recursively splits `piece` on successive secondary-hash bits until it
/// fits `max_piece_bytes` or the depth bound / single-key floor is hit.
/// Low slot recurses before high slot, so pieces emit in ascending
/// sub-partition slot order — a pure function of the key set.
void SplitToFit(PartitionGroup&& piece, int64_t max_piece_bytes,
                int max_depth, int depth,
                std::vector<std::pair<PartitionGroup, int>>* out) {
  if (piece.empty()) return;
  if (piece.bytes() <= max_piece_bytes || depth >= max_depth ||
      piece.DistinctKeyCount() < 2) {
    out->emplace_back(std::move(piece), depth);
    return;
  }
  PartitionGroup high = piece.SplitBySecondaryHashBit(depth);
  SplitToFit(std::move(piece), max_piece_bytes, max_depth, depth + 1, out);
  SplitToFit(std::move(high), max_piece_bytes, max_depth, depth + 1, out);
}

}  // namespace

std::vector<StateManager::ExtractedGroup> StateManager::ExtractColdState(
    PartitionId partition, int64_t target_bytes, int64_t max_piece_bytes,
    int max_depth) {
  if (target_bytes <= 0) return {};
  auto it = groups_.find(partition);
  if (it == groups_.end() || IsLocked(partition)) return {};
  PartitionGroup& group = *it->second;
  DCAPE_CHECK_GE(max_piece_bytes, 1);
  DCAPE_CHECK_GE(max_depth, 0);

  PartitionGroup cold(partition, num_streams_);
  bool partial = false;
  const int64_t resident_before = group.resident_bytes();
  if (target_bytes < group.bytes() &&
      group.SplitColdest(target_bytes, &cold) > 0) {
    // Bucket-granular path: the hot residue stays resident (SplitColdest
    // never moves the hottest key, so the group cannot be empty here).
    DCAPE_CHECK(!group.empty());
    partial = true;
    AddBytes(-cold.bytes());
    total_tuples_ -= cold.tuple_count();
    AddResident(group.resident_bytes() - resident_before);
  } else {
    // Whole-group path: the target covers the group, or the group has a
    // single key and cannot split at bucket granularity.
    cold = std::move(group);
    AddBytes(-cold.bytes());
    total_tuples_ -= cold.tuple_count();
    AddResident(-resident_before);
    groups_.erase(it);
  }

  std::vector<std::pair<PartitionGroup, int>> pieces;
  SplitToFit(std::move(cold), max_piece_bytes, max_depth, 0, &pieces);
  std::vector<ExtractedGroup> extracted;
  extracted.reserve(pieces.size());
  for (auto& [piece, depth] : pieces) {
    extracted.push_back(SerializePiece(std::move(piece), partial, depth));
  }
  return extracted;
}

void StateManager::MarkDiskBacked(PartitionId partition) {
  disk_backed_.insert(partition);
}

void StateManager::ClearDiskBacked(PartitionId partition) {
  disk_backed_.erase(partition);
}

Status StateManager::InstallGroup(std::string_view blob) {
  DCAPE_ASSIGN_OR_RETURN(PartitionGroup group,
                         PartitionGroup::Deserialize(blob));
  if (group.num_streams() != num_streams_) {
    return Status::InvalidArgument(
        "installed group has mismatched stream count");
  }
  AddBytes(group.bytes());
  total_tuples_ += group.tuple_count();
  auto it = groups_.find(group.partition());
  if (it == groups_.end()) {
    AddResident(group.resident_bytes());
    groups_.emplace(group.partition(),
                    std::make_unique<PartitionGroup>(std::move(group)));
  } else {
    const int64_t resident_before = it->second->resident_bytes();
    it->second->MergeFrom(std::move(group));
    AddResident(it->second->resident_bytes() - resident_before);
  }
  return Status::OK();
}

std::vector<StateManager::ExtractedGroup> StateManager::EvictExpired(
    Tick cutoff, const std::set<PartitionId>* encode) {
  std::vector<ExtractedGroup> evicted;
  std::vector<PartitionId> emptied;
  for (auto& [partition, group] : groups_) {
    PartitionGroup expired(partition, num_streams_);
    const int64_t bytes_before = group->bytes();
    const int64_t resident_before = group->resident_bytes();
    const int64_t moved = group->EvictBefore(cutoff, &expired);
    if (moved == 0) continue;
    AddBytes(group->bytes() - bytes_before);
    total_tuples_ -= moved;
    AddResident(group->resident_bytes() - resident_before);
    ExtractedGroup out;
    out.partition = partition;
    out.bytes = expired.bytes();
    out.raw_bytes = expired.SerializedByteSize();
    out.tuple_count = expired.tuple_count();
    if (encode == nullptr || encode->count(partition) > 0) {
      expired.Serialize(&out.blob, segment_format_);
    }
    evicted.push_back(std::move(out));
    if (group->empty()) emptied.push_back(partition);
  }
  for (PartitionId p : emptied) {
    AddResident(-groups_.at(p)->resident_bytes());
    groups_.erase(p);
  }
  return evicted;
}

void StateManager::AddBytes(int64_t delta) {
  total_bytes_ += delta;
  peak_bytes_ = std::max(peak_bytes_, total_bytes_);
}

void StateManager::AddResident(int64_t delta) {
  resident_bytes_ += delta;
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
}

void StateManager::LockGroups(const std::vector<PartitionId>& partitions) {
  for (PartitionId p : partitions) locked_[p] = true;
}

void StateManager::UnlockGroups(const std::vector<PartitionId>& partitions) {
  for (PartitionId p : partitions) locked_.erase(p);
}

bool StateManager::IsLocked(PartitionId partition) const {
  auto it = locked_.find(partition);
  return it != locked_.end() && it->second;
}

std::vector<GroupStats> StateManager::SnapshotStats(
    bool exclude_locked) const {
  std::vector<GroupStats> stats;
  stats.reserve(groups_.size());
  for (const auto& [partition, group] : groups_) {
    if (exclude_locked && IsLocked(partition)) continue;
    stats.push_back(group->Stats());
  }
  return stats;
}

const PartitionGroup* StateManager::FindGroup(PartitionId partition) const {
  auto it = groups_.find(partition);
  return it == groups_.end() ? nullptr : it->second.get();
}

std::vector<PartitionId> StateManager::PartitionIds() const {
  std::vector<PartitionId> ids;
  ids.reserve(groups_.size());
  for (const auto& [partition, group] : groups_) ids.push_back(partition);
  return ids;
}

}  // namespace dcape
