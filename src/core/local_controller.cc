#include "core/local_controller.h"

#include "core/victim_policy.h"

namespace dcape {

std::vector<GroupStats> LocalController::RefinedStats(
    const StateManager& state) const {
  std::vector<GroupStats> stats =
      state.SnapshotStats(/*exclude_locked=*/true);
  tracker_.Refine(&stats);
  return stats;
}

void LocalController::RollProductivityWindow(const StateManager& state) {
  tracker_.Roll(state.SnapshotStats(/*exclude_locked=*/false));
  // Incremental re-cost: fold the refined snapshot into the score index;
  // only partitions whose statistics moved this window are touched.
  std::vector<GroupStats> refined =
      state.SnapshotStats(/*exclude_locked=*/false);
  tracker_.Refine(&refined);
  scores_.Update(refined);
  scores_ready_ = true;
}

std::vector<PartitionId> LocalController::ChoosePartitionsToMove(
    const StateManager& state, int64_t amount_bytes) {
  return SelectRelocationCandidates(RefinedStats(state), amount_bytes);
}

std::vector<SpillRequest> LocalController::BuildPlan(const StateManager& state,
                                                     SpillPolicy policy,
                                                     int64_t target_bytes) {
  std::vector<PartitionId> ranked;
  if (policy == SpillPolicy::kLeastProductiveFirst && scores_ready_ &&
      !scores_.empty()) {
    ranked = scores_.RankedAscending();
  } else {
    for (const GroupStats& g :
         RankForSpill(RefinedStats(state), policy, &rng_)) {
      ranked.push_back(g.partition);
    }
  }
  // Sizes come from the live state: the model may lag a stats window,
  // and locked / departed groups must not be planned.
  return BuildSpillPlan(ranked, target_bytes, [&state](PartitionId p) {
    if (state.IsLocked(p)) return static_cast<int64_t>(-1);
    const PartitionGroup* group = state.FindGroup(p);
    return group == nullptr ? static_cast<int64_t>(-1) : group->bytes();
  });
}

std::vector<SpillRequest> LocalController::PlanSpill(
    Tick now, const StateManager& state) {
  if (!ss_timer_.Expired(now)) return {};
  if (state.total_bytes() <= config_.memory_threshold_bytes) return {};
  const int64_t target =
      SpillTargetBytes(state.total_bytes(), config_.memory_threshold_bytes,
                       config_.spill_fraction);
  return BuildPlan(state, config_.policy, target);
}

std::vector<SpillRequest> LocalController::PlanForcedSpill(
    const StateManager& state, int64_t amount_bytes) {
  return BuildPlan(state, SpillPolicy::kLeastProductiveFirst, amount_bytes);
}

}  // namespace dcape
