#include "runtime/cluster_config.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

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

TEST(ClusterConfigBuilderTest, ZipfSkewRangeAndFluctuationExclusion) {
  ClusterConfig negative;
  negative.workload.zipf_s = -0.5;
  Status status = ClusterConfig::Builder(negative).Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--zipf-s"), std::string::npos);

  // Static Zipf skew and time-varying fluctuation are mutually
  // exclusive workload shapes.
  ClusterConfig both;
  both.workload.zipf_s = 0.8;
  both.workload.fluctuation.enabled = true;
  status = ClusterConfig::Builder(both).Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--zipf-s"), std::string::npos);
  EXPECT_NE(status.message().find("--fluctuation"), std::string::npos);

  ClusterConfig valid;
  valid.workload.zipf_s = 0.8;
  EXPECT_TRUE(ClusterConfig::Builder(valid).Validate().ok());
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

TEST(ClusterConfigBuilderTest, AggregateFieldsAreRangeChecked) {
  // Range checks do not depend on MarkSet: a programmatic config gets
  // them too.
  ClusterConfig c;
  c.workload.inter_arrival_ticks = 0;
  Status status = ClusterConfig::Builder(c).Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("--inter-arrival-ms"), std::string::npos);
}

TEST(ClusterConfigBuilderTest, NonFiniteValuesAreRejected) {
  // NaN fails every < and > test, so each range check must reject it
  // explicitly; an unbounded range must also reject infinity.
  struct Field {
    const char* flag;
    double* (*of)(ClusterConfig*);
  };
  const Field fields[] = {
      {"--theta", [](ClusterConfig* c) { return &c->relocation.theta_r; }},
      {"--lambda", [](ClusterConfig* c) { return &c->active_disk.lambda; }},
      {"--ewma-alpha",
       [](ClusterConfig* c) { return &c->productivity.ewma_alpha; }},
      {"--spill-fraction",
       [](ClusterConfig* c) { return &c->spill.spill_fraction; }},
      {"--hot-mult",
       [](ClusterConfig* c) {
         return &c->workload.fluctuation.hot_multiplier;
       }},
      {"--zipf-s", [](ClusterConfig* c) { return &c->workload.zipf_s; }},
  };
  for (const Field& field : fields) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      ClusterConfig c;
      *field.of(&c) = bad;
      Status status = ClusterConfig::Builder(c).Validate();
      ASSERT_FALSE(status.ok()) << field.flag << "=" << bad;
      EXPECT_NE(status.message().find(field.flag), std::string::npos)
          << status.ToString();
    }
  }
}

TEST(ClusterConfigBuilderTest, KeysPerPartitionMustFitTheKeyStride) {
  // keys = tuple_range / (join_rate * partitions) is rounded to the
  // nearest count, which must stay below StreamGenerator::kKeyStride;
  // the inputs must be positive (the generator aborts otherwise).
  struct Case {
    double join_rate;
    int64_t tuple_range;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Case& bad : {Case{3.0, 189000000}, Case{1e-300, 180000},
                          Case{1.0, 62914530}, Case{0.0, 180000},
                          Case{nan, 180000}, Case{3.0, 0}}) {
    ClusterConfig c;
    c.workload.num_partitions = 60;
    c.workload.classes = {PartitionClass{}, {bad.join_rate, bad.tuple_range}};
    Status status = ClusterConfig::Builder(c).Validate();
    ASSERT_FALSE(status.ok()) << bad.join_rate << " " << bad.tuple_range;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    for (const char* flag : {"--tuple-range", "--join-rate", "--partitions"}) {
      EXPECT_NE(status.message().find(flag), std::string::npos)
          << status.ToString();
    }
  }
  // 62,914,529 / 60 rounds to 1,048,575 keys: the largest that fits.
  ClusterConfig c;
  c.workload.num_partitions = 60;
  c.workload.classes = {PartitionClass{1.0, 62914529}};
  EXPECT_TRUE(ClusterConfig::Builder(c).Validate().ok());
}

TEST(ClusterConfigBuilderTest, PlacementSharesMustBeFiniteAndNonNegative) {
  for (const std::vector<double>& shares :
       {std::vector<double>{2, -1},
        std::vector<double>{0.5, std::numeric_limits<double>::quiet_NaN()},
        std::vector<double>{std::numeric_limits<double>::infinity(), 0}}) {
    ClusterConfig c;
    c.placement_fractions = shares;
    Status status = ClusterConfig::Builder(c).Validate();
    ASSERT_FALSE(status.ok()) << shares[0] << "," << shares[1];
    EXPECT_NE(status.message().find("--placement"), std::string::npos)
        << status.ToString();
  }
  // An engine may start with no partitions.
  ClusterConfig c;
  c.placement_fractions = {1, 0};
  EXPECT_TRUE(ClusterConfig::Builder(c).Validate().ok());
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
  ClusterConfig c;
  c.replay_trace = std::make_shared<const std::string>("not a trace");
  Status status = ClusterConfig::Builder(c).Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--replay-trace"), std::string::npos);
}

TEST(ClusterConfigBuilderTest, ReplayTraceMustMatchStreamCount) {
  ClusterConfig c;
  c.workload.num_streams = 3;
  c.replay_trace = OneTupleTrace(4);
  Status status = ClusterConfig::Builder(c).Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--replay-trace"), std::string::npos);
  EXPECT_NE(status.message().find("--streams"), std::string::npos);

  c.replay_trace = OneTupleTrace(3);
  EXPECT_TRUE(ClusterConfig::Builder(c).Validate().ok());
}

}  // namespace
}  // namespace dcape
