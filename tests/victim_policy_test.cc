#include "core/victim_policy.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace dcape {
namespace {

GroupStats MakeStats(PartitionId p, int64_t bytes, int64_t outputs) {
  GroupStats stats;
  stats.partition = p;
  stats.bytes = bytes;
  stats.outputs = outputs;
  stats.productivity =
      bytes > 0 ? static_cast<double>(outputs) / static_cast<double>(bytes)
                : 0.0;
  return stats;
}

std::vector<GroupStats> SampleGroups() {
  // productivity: p0=0.1, p1=2.0, p2=0.5, p3=0.01
  return {MakeStats(0, 100, 10), MakeStats(1, 100, 200),
          MakeStats(2, 100, 50), MakeStats(3, 100, 1)};
}

/// The gradual plan for `target_bytes` over `stats` ranked under
/// `policy`, sized from the stats: what LocalController::PlanSpill builds
/// from a snapshot ranking.
std::vector<SpillRequest> Plan(const std::vector<GroupStats>& stats,
                               SpillPolicy policy, int64_t target_bytes,
                               Rng* rng) {
  std::vector<PartitionId> ranked;
  std::map<PartitionId, int64_t> bytes;
  for (const GroupStats& g : RankForSpill(stats, policy, rng)) {
    ranked.push_back(g.partition);
    bytes[g.partition] = g.bytes;
  }
  return BuildSpillPlan(ranked, target_bytes,
                        [&bytes](PartitionId p) { return bytes.at(p); });
}

std::vector<PartitionId> Partitions(const std::vector<SpillRequest>& plan) {
  std::vector<PartitionId> ids;
  for (const SpillRequest& r : plan) ids.push_back(r.partition);
  return ids;
}

int64_t TotalBytes(const std::vector<SpillRequest>& plan) {
  int64_t total = 0;
  for (const SpillRequest& r : plan) total += r.bytes;
  return total;
}

TEST(SpillPlanTest, LeastProductiveFirst) {
  std::vector<SpillRequest> plan = Plan(
      SampleGroups(), SpillPolicy::kLeastProductiveFirst, 150, nullptr);
  EXPECT_EQ(Partitions(plan), (std::vector<PartitionId>{3, 0}));
  EXPECT_EQ(TotalBytes(plan), 150);
}

TEST(SpillPlanTest, MostProductiveFirst) {
  std::vector<SpillRequest> plan = Plan(
      SampleGroups(), SpillPolicy::kMostProductiveFirst, 150, nullptr);
  EXPECT_EQ(Partitions(plan), (std::vector<PartitionId>{1, 2}));
  EXPECT_EQ(TotalBytes(plan), 150);
}

TEST(SpillPlanTest, LargestFirst) {
  std::vector<GroupStats> stats = {MakeStats(0, 50, 0), MakeStats(1, 500, 0),
                                   MakeStats(2, 100, 0)};
  std::vector<SpillRequest> plan =
      Plan(stats, SpillPolicy::kLargestFirst, 501, nullptr);
  EXPECT_EQ(Partitions(plan), (std::vector<PartitionId>{1, 2}));
  EXPECT_EQ(TotalBytes(plan), 501);
}

TEST(SpillPlanTest, SmallestFirst) {
  std::vector<GroupStats> stats = {MakeStats(0, 50, 0), MakeStats(1, 500, 0),
                                   MakeStats(2, 100, 0)};
  std::vector<SpillRequest> plan =
      Plan(stats, SpillPolicy::kSmallestFirst, 60, nullptr);
  EXPECT_EQ(Partitions(plan), (std::vector<PartitionId>{0, 2}));
  EXPECT_EQ(TotalBytes(plan), 60);
}

TEST(SpillPlanTest, StopsAtTargetBytes) {
  std::vector<SpillRequest> plan = Plan(
      SampleGroups(), SpillPolicy::kLeastProductiveFirst, 100, nullptr);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_TRUE(plan[0].whole_group);
  EXPECT_EQ(TotalBytes(plan), 100);
}

TEST(SpillPlanTest, AtLeastOneVictimForPositiveTarget) {
  std::vector<SpillRequest> plan = Plan(
      SampleGroups(), SpillPolicy::kLeastProductiveFirst, 1, nullptr);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(TotalBytes(plan), 1);
}

TEST(SpillPlanTest, EmptyForZeroTargetOrNoGroups) {
  EXPECT_TRUE(
      Plan(SampleGroups(), SpillPolicy::kLeastProductiveFirst, 0, nullptr)
          .empty());
  EXPECT_TRUE(
      Plan({}, SpillPolicy::kLeastProductiveFirst, 100, nullptr).empty());
}

TEST(SpillPlanTest, RandomIsSeedDeterministicAndCoversTarget) {
  Rng rng1(42);
  Rng rng2(42);
  std::vector<SpillRequest> a =
      Plan(SampleGroups(), SpillPolicy::kRandom, 250, &rng1);
  std::vector<SpillRequest> b =
      Plan(SampleGroups(), SpillPolicy::kRandom, 250, &rng2);
  EXPECT_EQ(Partitions(a), Partitions(b));
  EXPECT_EQ(a.size(), 3u);  // 3 * 100 bytes >= 250
  EXPECT_EQ(TotalBytes(a), 250);
}

TEST(SpillPlanTest, TieBreaksOnPartitionId) {
  std::vector<GroupStats> stats = {MakeStats(5, 100, 10), MakeStats(2, 100, 10),
                                   MakeStats(9, 100, 10)};
  std::vector<SpillRequest> plan =
      Plan(stats, SpillPolicy::kLeastProductiveFirst, 250, nullptr);
  EXPECT_EQ(Partitions(plan), (std::vector<PartitionId>{2, 5, 9}));
}

TEST(SelectRelocationCandidatesTest, MostProductiveFirst) {
  std::vector<PartitionId> chosen =
      SelectRelocationCandidates(SampleGroups(), 150);
  EXPECT_EQ(chosen, (std::vector<PartitionId>{1, 2}));
}

TEST(SelectRelocationCandidatesTest, SkipsEmptyGroups) {
  std::vector<GroupStats> stats = {MakeStats(0, 0, 0), MakeStats(1, 10, 5)};
  std::vector<PartitionId> chosen = SelectRelocationCandidates(stats, 5);
  EXPECT_EQ(chosen, (std::vector<PartitionId>{1}));
}

}  // namespace
}  // namespace dcape
