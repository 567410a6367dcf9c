#include "core/victim_policy.h"

#include <algorithm>

#include "common/check.h"

namespace dcape {
namespace {

/// Takes the ranked prefix reaching `target_bytes`.
std::vector<PartitionId> TakePrefix(const std::vector<GroupStats>& stats,
                                    int64_t target_bytes) {
  std::vector<PartitionId> selected;
  int64_t accumulated = 0;
  for (const GroupStats& g : stats) {
    if (accumulated >= target_bytes && !selected.empty()) break;
    if (g.bytes <= 0) continue;
    selected.push_back(g.partition);
    accumulated += g.bytes;
  }
  return selected;
}

}  // namespace

std::vector<GroupStats> RankForSpill(std::vector<GroupStats> stats,
                                     SpillPolicy policy, Rng* rng) {
  switch (policy) {
    case SpillPolicy::kLeastProductiveFirst:
      std::sort(stats.begin(), stats.end(),
                [](const GroupStats& a, const GroupStats& b) {
                  if (a.productivity != b.productivity) {
                    return a.productivity < b.productivity;
                  }
                  return a.partition < b.partition;
                });
      break;
    case SpillPolicy::kMostProductiveFirst:
      std::sort(stats.begin(), stats.end(),
                [](const GroupStats& a, const GroupStats& b) {
                  if (a.productivity != b.productivity) {
                    return a.productivity > b.productivity;
                  }
                  return a.partition < b.partition;
                });
      break;
    case SpillPolicy::kLargestFirst:
      std::sort(stats.begin(), stats.end(),
                [](const GroupStats& a, const GroupStats& b) {
                  if (a.bytes != b.bytes) return a.bytes > b.bytes;
                  return a.partition < b.partition;
                });
      break;
    case SpillPolicy::kSmallestFirst:
      std::sort(stats.begin(), stats.end(),
                [](const GroupStats& a, const GroupStats& b) {
                  if (a.bytes != b.bytes) return a.bytes < b.bytes;
                  return a.partition < b.partition;
                });
      break;
    case SpillPolicy::kRandom: {
      DCAPE_CHECK(rng != nullptr);
      // Sort by id first so the shuffle depends only on the rng sequence.
      std::sort(stats.begin(), stats.end(),
                [](const GroupStats& a, const GroupStats& b) {
                  return a.partition < b.partition;
                });
      for (size_t i = stats.size(); i > 1; --i) {
        std::swap(stats[i - 1], stats[rng->Uniform(i)]);
      }
      break;
    }
  }
  return stats;
}

std::vector<PartitionId> SelectRelocationCandidates(
    std::vector<GroupStats> stats, int64_t target_bytes) {
  if (target_bytes <= 0 || stats.empty()) return {};
  std::sort(stats.begin(), stats.end(),
            [](const GroupStats& a, const GroupStats& b) {
              if (a.productivity != b.productivity) {
                return a.productivity > b.productivity;
              }
              return a.partition < b.partition;
            });
  return TakePrefix(stats, target_bytes);
}

int64_t SpillTargetBytes(int64_t state_bytes, int64_t threshold_bytes,
                         double spill_fraction) {
  if (spill_fraction > 0) {
    return static_cast<int64_t>(spill_fraction *
                                static_cast<double>(state_bytes));
  }
  // Adaptive sizing: spill down to 7/8 of the threshold — exactly the
  // overflow plus hysteresis headroom, instead of a fixed k% of state.
  const int64_t floor_bytes = threshold_bytes - threshold_bytes / 8;
  return std::max<int64_t>(state_bytes - floor_bytes, 1);
}

int SpillScoreModel::Update(const std::vector<GroupStats>& stats) {
  int changed = 0;
  // Mark-and-sweep against the snapshot: entries re-cost only when their
  // inputs moved; the rest of the index is untouched.
  std::set<PartitionId> seen;
  for (const GroupStats& g : stats) {
    seen.insert(g.partition);
    auto it = entries_.find(g.partition);
    if (it != entries_.end() && it->second.bytes == g.bytes &&
        it->second.outputs == g.outputs &&
        it->second.score == g.productivity) {
      continue;
    }
    if (it != entries_.end()) {
      by_score_.erase({it->second.score, g.partition});
    }
    Entry e;
    e.score = g.productivity;
    e.bytes = g.bytes;
    e.outputs = g.outputs;
    entries_[g.partition] = e;
    by_score_.insert({e.score, g.partition});
    ++changed;
  }
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (seen.count(it->first) == 0) {
      by_score_.erase({it->second.score, it->first});
      it = entries_.erase(it);
      ++changed;
    } else {
      ++it;
    }
  }
  return changed;
}

std::vector<PartitionId> SpillScoreModel::RankedAscending() const {
  std::vector<PartitionId> ranked;
  ranked.reserve(by_score_.size());
  for (const auto& [score, partition] : by_score_) {
    ranked.push_back(partition);
  }
  return ranked;
}

double SpillScoreModel::ScoreOf(PartitionId partition) const {
  auto it = entries_.find(partition);
  return it == entries_.end() ? -1.0 : it->second.score;
}

std::vector<SpillRequest> BuildSpillPlan(
    const std::vector<PartitionId>& ranked, int64_t target_bytes,
    const std::function<int64_t(PartitionId)>& live_bytes) {
  std::vector<SpillRequest> plan;
  if (target_bytes <= 0) return plan;
  int64_t remaining = target_bytes;
  for (PartitionId p : ranked) {
    if (remaining <= 0) break;
    const int64_t bytes = live_bytes(p);
    if (bytes <= 0) continue;
    SpillRequest req;
    req.partition = p;
    req.bytes = std::min(bytes, remaining);
    req.whole_group = req.bytes >= bytes;
    plan.push_back(req);
    remaining -= req.bytes;
  }
  return plan;
}

}  // namespace dcape
