#include "runtime/cluster_config.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "stream/trace.h"

namespace dcape {
namespace {

TEST(ComputePlacementTest, UniformByDefault) {
  std::vector<EngineId> placement = ComputePlacement(12, 3, {});
  std::map<EngineId, int> counts;
  for (EngineId e : placement) counts[e] += 1;
  EXPECT_EQ(counts[0], 4);
  EXPECT_EQ(counts[1], 4);
  EXPECT_EQ(counts[2], 4);
}

TEST(ComputePlacementTest, ContiguousBlocks) {
  std::vector<EngineId> placement = ComputePlacement(10, 2, {0.6, 0.4});
  for (size_t p = 1; p < placement.size(); ++p) {
    EXPECT_GE(placement[p], placement[p - 1]) << "blocks must be contiguous";
  }
  std::map<EngineId, int> counts;
  for (EngineId e : placement) counts[e] += 1;
  EXPECT_EQ(counts[0], 6);
  EXPECT_EQ(counts[1], 4);
}

TEST(ComputePlacementTest, SkewedThreeWay) {
  // The Fig. 12 setup: one machine gets 2/3, the others split 1/3.
  std::vector<EngineId> placement =
      ComputePlacement(60, 3, {2.0 / 3, 1.0 / 6, 1.0 / 6});
  std::map<EngineId, int> counts;
  for (EngineId e : placement) counts[e] += 1;
  EXPECT_EQ(counts[0], 40);
  EXPECT_EQ(counts[1], 10);
  EXPECT_EQ(counts[2], 10);
}

TEST(ComputePlacementTest, EveryEngineAppearsEvenWithRounding) {
  std::vector<EngineId> placement = ComputePlacement(7, 3, {0.5, 0.25, 0.25});
  std::map<EngineId, int> counts;
  for (EngineId e : placement) counts[e] += 1;
  EXPECT_EQ(counts.size(), 3u);
}

TEST(PartitionsOfEngineTest, ReturnsOwnedIds) {
  std::vector<EngineId> placement = {0, 0, 1, 1, 1, 2};
  EXPECT_EQ(PartitionsOfEngine(placement, 0),
            (std::vector<PartitionId>{0, 1}));
  EXPECT_EQ(PartitionsOfEngine(placement, 1),
            (std::vector<PartitionId>{2, 3, 4}));
  EXPECT_EQ(PartitionsOfEngine(placement, 2), (std::vector<PartitionId>{5}));
  EXPECT_TRUE(PartitionsOfEngine(placement, 3).empty());
}

TEST(StrategyTest, NamesAndCapabilities) {
  EXPECT_STREQ(StrategyName(AdaptationStrategy::kLazyDisk), "lazy-disk");
  EXPECT_STREQ(StrategyName(AdaptationStrategy::kActiveDisk), "active-disk");
  EXPECT_STREQ(SpillPolicyName(SpillPolicy::kLeastProductiveFirst),
               "push-less-productive");

  EXPECT_FALSE(StrategySpillsLocally(AdaptationStrategy::kNoAdaptation));
  EXPECT_TRUE(StrategySpillsLocally(AdaptationStrategy::kSpillOnly));
  EXPECT_FALSE(StrategySpillsLocally(AdaptationStrategy::kRelocationOnly));
  EXPECT_TRUE(StrategySpillsLocally(AdaptationStrategy::kLazyDisk));
  EXPECT_TRUE(StrategySpillsLocally(AdaptationStrategy::kActiveDisk));

  EXPECT_FALSE(StrategyRelocates(AdaptationStrategy::kNoAdaptation));
  EXPECT_FALSE(StrategyRelocates(AdaptationStrategy::kSpillOnly));
  EXPECT_TRUE(StrategyRelocates(AdaptationStrategy::kRelocationOnly));
  EXPECT_TRUE(StrategyRelocates(AdaptationStrategy::kLazyDisk));
  EXPECT_TRUE(StrategyRelocates(AdaptationStrategy::kActiveDisk));
}

TEST(ClusterConfigBuilderTest, DefaultsValidate) {
  StatusOr<ClusterConfig> built = ClusterConfig::Builder().Build();
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->num_engines, 2);
  EXPECT_EQ(built->strategy, AdaptationStrategy::kNoAdaptation);
}

TEST(ClusterConfigBuilderTest, SettersFlowIntoTheConfig) {
  StatusOr<ClusterConfig> built = ClusterConfig::Builder()
                                      .SetStrategy(AdaptationStrategy::kLazyDisk)
                                      .SetNumEngines(4)
                                      .SetNumThreads(3)
                                      .SetSeed(99)
                                      .SetThetaR(0.6)
                                      .Build();
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_EQ(built->num_engines, 4);
  EXPECT_EQ(built->num_threads, 3);
  EXPECT_EQ(built->seed, 99u);
  EXPECT_EQ(built->workload.seed, 99u);
  EXPECT_DOUBLE_EQ(built->relocation.theta_r, 0.6);
}

TEST(ClusterConfigBuilderTest, RangeChecksCatchBadValues) {
  EXPECT_FALSE(ClusterConfig::Builder().SetNumEngines(0).Build().ok());
  EXPECT_FALSE(ClusterConfig::Builder().SetNumEngines(65).Build().ok());
  EXPECT_FALSE(ClusterConfig::Builder().SetNumThreads(0).Build().ok());
  EXPECT_FALSE(ClusterConfig::Builder().SetNumStreams(1).Build().ok());
  EXPECT_FALSE(ClusterConfig::Builder()
                   .SetStrategy(AdaptationStrategy::kLazyDisk)
                   .SetSpillFraction(1.5)
                   .Build()
                   .ok());
  Status status =
      ClusterConfig::Builder().SetNumEngines(0).Validate();
  EXPECT_NE(status.message().find("--engines"), std::string::npos);
}

TEST(ClusterConfigBuilderTest, SpillFractionAcceptsAdaptiveSentinel) {
  // 0 is the adaptive sentinel (threshold-overshoot sizing), valid under
  // any spilling strategy; out-of-range values fail naming the flag.
  EXPECT_TRUE(ClusterConfig::Builder()
                  .SetStrategy(AdaptationStrategy::kSpillOnly)
                  .SetSpillFraction(0.0)
                  .Build()
                  .ok());
  for (double bad : {-0.1, 1.5}) {
    StatusOr<ClusterConfig> built =
        ClusterConfig::Builder()
            .SetStrategy(AdaptationStrategy::kSpillOnly)
            .SetSpillFraction(bad)
            .Build();
    ASSERT_FALSE(built.ok()) << bad;
    EXPECT_NE(built.status().message().find("--spill-fraction"),
              std::string::npos)
        << built.status().ToString();
  }
}

TEST(ClusterConfigBuilderTest, MaxSubpartitionDepthRangeChecked) {
  for (int depth : {0, 4, 12}) {
    EXPECT_TRUE(ClusterConfig::Builder()
                    .SetStrategy(AdaptationStrategy::kSpillOnly)
                    .SetMaxSubpartitionDepth(depth)
                    .Build()
                    .ok())
        << depth;
  }
  for (int depth : {-1, 13}) {
    StatusOr<ClusterConfig> built =
        ClusterConfig::Builder()
            .SetStrategy(AdaptationStrategy::kSpillOnly)
            .SetMaxSubpartitionDepth(depth)
            .Build();
    ASSERT_FALSE(built.ok()) << depth;
    EXPECT_NE(built.status().message().find("--max-subpartition-depth"),
              std::string::npos)
        << built.status().ToString();
  }
  // Like the other spill knobs, setting it explicitly under a
  // non-spilling strategy is a consistency error.
  StatusOr<ClusterConfig> built =
      ClusterConfig::Builder().SetMaxSubpartitionDepth(4).Build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("--max-subpartition-depth"),
            std::string::npos);
  EXPECT_NE(built.status().message().find("spilling strategy"),
            std::string::npos);
}

TEST(ClusterConfigBuilderTest, ZipfSkewRangeAndFluctuationExclusion) {
  ClusterConfig::Builder negative;
  negative.mutable_config().workload.zipf_s = -0.5;
  Status status = negative.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--zipf-s"), std::string::npos);

  // Static Zipf skew and time-varying fluctuation are mutually
  // exclusive workload shapes.
  ClusterConfig::Builder both;
  both.mutable_config().workload.zipf_s = 0.8;
  both.mutable_config().workload.fluctuation.enabled = true;
  status = both.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--zipf-s"), std::string::npos);
  EXPECT_NE(status.message().find("--fluctuation"), std::string::npos);

  ClusterConfig::Builder valid;
  valid.mutable_config().workload.zipf_s = 0.8;
  EXPECT_TRUE(valid.Validate().ok());
}

TEST(ClusterConfigBuilderTest, StrategyConsistencyOnlyForExplicitFields) {
  // theta_r has a (valid) default; not setting it keeps all-mem fine.
  EXPECT_TRUE(ClusterConfig::Builder().Build().ok());
  // Explicitly tuning relocation under a non-relocating strategy fails.
  StatusOr<ClusterConfig> built =
      ClusterConfig::Builder().SetThetaR(0.5).Build();
  ASSERT_FALSE(built.ok());
  EXPECT_NE(built.status().message().find("--theta"), std::string::npos);
  EXPECT_NE(built.status().message().find("relocating strategy"),
            std::string::npos);
  // The same value under a relocating strategy is fine.
  EXPECT_TRUE(ClusterConfig::Builder()
                  .SetStrategy(AdaptationStrategy::kRelocationOnly)
                  .SetThetaR(0.5)
                  .Build()
                  .ok());
}

TEST(ClusterConfigBuilderTest, LambdaRequiresActiveDisk) {
  EXPECT_FALSE(ClusterConfig::Builder()
                   .SetStrategy(AdaptationStrategy::kLazyDisk)
                   .SetLambda(3.0)
                   .Build()
                   .ok());
  EXPECT_TRUE(ClusterConfig::Builder()
                  .SetStrategy(AdaptationStrategy::kActiveDisk)
                  .SetLambda(3.0)
                  .Build()
                  .ok());
}

TEST(ClusterConfigBuilderTest, AggregateBaseCountsAsDefaults) {
  // Fields of a base aggregate are not "explicitly set": a conflicting
  // theta in the base does not trip the consistency check…
  ClusterConfig base;
  base.relocation.theta_r = 0.5;
  EXPECT_TRUE(ClusterConfig::Builder(base).Build().ok());
  // …but MarkSet turns the same config into an error.
  EXPECT_FALSE(
      ClusterConfig::Builder(base).MarkSet("--theta").Build().ok());
}

TEST(ClusterConfigBuilderTest, TraceVerboseRequiresTrace) {
  EXPECT_FALSE(ClusterConfig::Builder().SetTraceVerbose(true).Build().ok());
  StatusOr<ClusterConfig> built = ClusterConfig::Builder()
                                      .SetTrace(true)
                                      .SetTraceVerbose(true)
                                      .Build();
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(built->trace);
  EXPECT_TRUE(built->trace_verbose);
}

TEST(ClusterConfigBuilderTest, PlacementMustMatchEngineCount) {
  EXPECT_FALSE(ClusterConfig::Builder()
                   .SetNumEngines(2)
                   .SetPlacementFractions({0.5, 0.3, 0.2})
                   .Build()
                   .ok());
  EXPECT_TRUE(ClusterConfig::Builder()
                  .SetNumEngines(3)
                  .SetPlacementFractions({0.5, 0.3, 0.2})
                  .Build()
                  .ok());
}

TEST(ClusterConfigBuilderTest, MutableConfigEscapeHatchStillRangeChecked) {
  ClusterConfig::Builder builder;
  builder.mutable_config().workload.inter_arrival_ticks = 0;
  Status status = builder.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--inter-arrival-ms"), std::string::npos);
}

/// A replay trace of `num_streams` streams holding one tuple.
std::shared_ptr<const std::string> OneTupleTrace(int num_streams) {
  auto data = std::make_shared<std::string>();
  TraceWriter writer(num_streams, data.get());
  Tuple tuple;
  tuple.join_key = 7;
  writer.Append(0, tuple);
  writer.Finish();
  return data;
}

TEST(ClusterConfigBuilderTest, ReplayTraceMustDecode) {
  ClusterConfig::Builder builder;
  builder.mutable_config().replay_trace =
      std::make_shared<const std::string>("not a trace");
  Status status = builder.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--replay-trace"), std::string::npos);
}

TEST(ClusterConfigBuilderTest, ReplayTraceMustMatchStreamCount) {
  ClusterConfig::Builder builder;
  builder.SetNumStreams(3);
  builder.mutable_config().replay_trace = OneTupleTrace(4);
  Status status = builder.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--replay-trace"), std::string::npos);
  EXPECT_NE(status.message().find("--streams"), std::string::npos);

  builder.mutable_config().replay_trace = OneTupleTrace(3);
  EXPECT_TRUE(builder.Validate().ok());
}

}  // namespace
}  // namespace dcape
