#include <gtest/gtest.h>

#include <string>

#include "runtime/cluster.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::AllResults;
using testing::SmallClusterConfig;
using testing::ToMultiset;

/// Exactness across join arities: the paper evaluates m = 3, but the
/// partition-group design is arity-generic. Sweep m = 2, 4, 5 under the
/// integrated strategy; the subset-expansion in the cleanup (2^m masks)
/// and the odometer probe must stay exact at every m.
class ArityExactness : public ::testing::TestWithParam<int> {};

TEST_P(ArityExactness, LazyDiskMatchesReference) {
  const int m = GetParam();
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(40);
  config.workload.num_streams = m;
  // Rescale the key domain so the output volume stays testable at
  // higher arity (output per key ~ c^m).
  config.workload.classes = {PartitionClass{1.0, static_cast<int64_t>(60) * 12 * m}};
  config.placement_fractions = {0.7, 0.3};

  std::vector<JoinResult> reference = testing::ReferenceResults(config);
  ASSERT_FALSE(reference.empty()) << "m=" << m;

  config.strategy = AdaptationStrategy::kLazyDisk;
  Cluster cluster(config);
  RunResult result = cluster.Run();
  ASSERT_GT(result.spill_events + result.coordinator.relocations_completed, 0)
      << "m=" << m << ": the config must actually adapt";

  auto all = ToMultiset(AllResults(result));
  for (const auto& [key, count] : all) {
    ASSERT_EQ(count, 1) << "duplicate at m=" << m << ": " << key;
  }
  EXPECT_EQ(all, ToMultiset(reference)) << "m=" << m;
}

TEST_P(ArityExactness, ResultsHaveOneMemberPerStream) {
  const int m = GetParam();
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(20);
  config.workload.num_streams = m;
  config.workload.classes = {PartitionClass{1.0, static_cast<int64_t>(60) * 12 * m}};
  config.strategy = AdaptationStrategy::kNoAdaptation;
  Cluster cluster(config);
  RunResult result = cluster.Run();
  ASSERT_FALSE(result.collected.empty());
  for (const JoinResult& r : result.collected) {
    ASSERT_EQ(r.member_seqs.size(), static_cast<size_t>(m));
  }
}

INSTANTIATE_TEST_SUITE_P(AritySweep, ArityExactness,
                         ::testing::Values(2, 4, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // Appending instead of `"m" + ...` sidesteps
                           // GCC 12's false -Werror=restrict in Release.
                           std::string name = "m";
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace dcape
