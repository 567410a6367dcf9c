#ifndef DCAPE_CORE_VICTIM_POLICY_H_
#define DCAPE_CORE_VICTIM_POLICY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "core/strategy.h"
#include "state/partition_group.h"

namespace dcape {

/// Selects partition groups to *relocate*: most productive first, until
/// `target_bytes` is reached (§5.1 — productive state should stay in main
/// memory, so it is what gets moved to the machine that still has room).
std::vector<PartitionId> SelectRelocationCandidates(
    std::vector<GroupStats> stats, int64_t target_bytes);

/// Ranks partition groups spill-first under `policy`; BuildSpillPlan
/// takes the plan from this order. Ties break on partition id so runs
/// are deterministic. `rng` is required for SpillPolicy::kRandom and
/// ignored otherwise.
///
/// This implements the paper's spill victim selection: the productivity
/// metric P_output/P_size decides which state leaves memory (§3,
/// "Throughput-Oriented Spill").
std::vector<GroupStats> RankForSpill(std::vector<GroupStats> stats,
                                     SpillPolicy policy, Rng* rng);

/// One entry of a gradual spill plan: spill `bytes` of the partition's
/// coldest keys; `whole_group` means the target covers the entire group
/// (classic full extraction).
struct SpillRequest {
  PartitionId partition = 0;
  int64_t bytes = 0;
  bool whole_group = false;
};

/// How many bytes a spill should remove. A positive `spill_fraction` is
/// the paper's k% rule; the 0 sentinel ("adaptive") sizes the spill to
/// land at 7/8 of the threshold — just enough to clear the overflow,
/// with headroom so the next arrivals don't immediately re-trigger.
int64_t SpillTargetBytes(int64_t state_bytes, int64_t threshold_bytes,
                         double spill_fraction);

/// Incrementally re-costed spill-score index (per-partition productivity
/// model). Each statistics report calls `Update`, which touches only the
/// partitions whose (bytes, outputs) actually changed — O(changed · log
/// n) against the ordered index instead of a full re-sort per decision.
/// `RankedAscending` yields partitions cheapest-to-spill first (lowest
/// score = least productive), ties broken on partition id, matching
/// RankForSpill(kLeastProductiveFirst) ordering exactly.
class SpillScoreModel {
 public:
  /// Folds a stats snapshot in. Partitions absent from `stats` are
  /// forgotten (spilled or relocated away). Returns the number of
  /// re-costed entries.
  int Update(const std::vector<GroupStats>& stats);

  /// Partition ids in ascending score order (spill-first order).
  std::vector<PartitionId> RankedAscending() const;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  /// The modeled score (refined productivity) of one partition, or -1
  /// when unknown.
  double ScoreOf(PartitionId partition) const;

 private:
  struct Entry {
    double score = 0;
    int64_t bytes = 0;
    int64_t outputs = 0;
  };
  std::map<PartitionId, Entry> entries_;
  /// Ordered index over (score, partition): re-ranking one partition is
  /// an erase + insert, O(log n).
  std::set<std::pair<double, PartitionId>> by_score_;
};

/// Builds a gradual plan from a spill-first ranking: whole groups while
/// they fit under the remaining target, then one final bucket-granular
/// request for the remainder (the hot residue of that group stays
/// resident). `live_bytes(p)` supplies current group sizes (< 0 = gone).
std::vector<SpillRequest> BuildSpillPlan(
    const std::vector<PartitionId>& ranked, int64_t target_bytes,
    const std::function<int64_t(PartitionId)>& live_bytes);

}  // namespace dcape

#endif  // DCAPE_CORE_VICTIM_POLICY_H_
