#include "runtime/experiment_flags.h"

#include <gtest/gtest.h>

namespace dcape {
namespace {

StatusOr<ExperimentOptions> Parse(std::vector<std::string> args) {
  return ParseExperimentFlags(args);
}

TEST(ExperimentFlagsTest, DefaultsWhenEmpty) {
  StatusOr<ExperimentOptions> options = Parse({});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->cluster.strategy, AdaptationStrategy::kNoAdaptation);
  EXPECT_EQ(options->cluster.num_engines, 2);
  EXPECT_EQ(options->cluster.run_duration, MinutesToTicks(10));
  EXPECT_TRUE(options->tables);
  EXPECT_FALSE(options->verbose);
}

TEST(ExperimentFlagsTest, ParsesFullCommandLine) {
  StatusOr<ExperimentOptions> options = Parse(
      {"--strategy=active-disk", "--engines=3", "--split-hosts=3",
       "--streams=4", "--partitions=100", "--duration-min=20",
       "--inter-arrival-ms=5", "--join-rate=4", "--tuple-range=90000",
       "--payload-bytes=32", "--seed=7", "--placement=0.5,0.3,0.2",
       "--threshold-kib=1024", "--spill-fraction=0.5",
       "--spill-policy=push-largest", "--theta=0.7", "--tau-sec=30",
       "--relocation-model=global-rebalance", "--lambda=3",
       "--productivity=ewma", "--ewma-alpha=0.8", "--restore",
       "--fluctuation", "--phase-min=2", "--hot-mult=5", "--csv=/tmp/x.csv",
       "--quiet", "--verbose"});
  ASSERT_TRUE(options.ok());
  const ClusterConfig& c = options->cluster;
  EXPECT_EQ(c.strategy, AdaptationStrategy::kActiveDisk);
  EXPECT_EQ(c.num_engines, 3);
  EXPECT_EQ(c.num_split_hosts, 3);
  EXPECT_EQ(c.workload.num_streams, 4);
  EXPECT_EQ(c.workload.num_partitions, 100);
  EXPECT_EQ(c.run_duration, MinutesToTicks(20));
  EXPECT_EQ(c.workload.inter_arrival_ticks, 5);
  ASSERT_EQ(c.workload.classes.size(), 1u);
  EXPECT_DOUBLE_EQ(c.workload.classes[0].join_rate, 4.0);
  EXPECT_EQ(c.workload.classes[0].tuple_range, 90000);
  EXPECT_EQ(c.workload.payload_bytes, 32);
  EXPECT_EQ(c.seed, 7u);
  ASSERT_EQ(c.placement_fractions.size(), 3u);
  EXPECT_DOUBLE_EQ(c.placement_fractions[1], 0.3);
  EXPECT_EQ(c.spill.memory_threshold_bytes, 1024 * kKiB);
  EXPECT_DOUBLE_EQ(c.spill.spill_fraction, 0.5);
  EXPECT_EQ(c.spill.policy, SpillPolicy::kLargestFirst);
  EXPECT_DOUBLE_EQ(c.relocation.theta_r, 0.7);
  EXPECT_EQ(c.relocation.min_time_between, SecondsToTicks(30));
  EXPECT_EQ(c.relocation.model, RelocationModel::kGlobalRebalance);
  EXPECT_DOUBLE_EQ(c.active_disk.lambda, 3.0);
  EXPECT_EQ(c.productivity.model, ProductivityModel::kEwma);
  EXPECT_DOUBLE_EQ(c.productivity.ewma_alpha, 0.8);
  EXPECT_TRUE(c.restore.enabled);
  EXPECT_TRUE(c.workload.fluctuation.enabled);
  EXPECT_EQ(c.workload.fluctuation.phase_ticks, MinutesToTicks(2));
  EXPECT_DOUBLE_EQ(c.workload.fluctuation.hot_multiplier, 5.0);
  EXPECT_EQ(options->csv_path, "/tmp/x.csv");
  EXPECT_FALSE(options->tables);
  EXPECT_TRUE(options->verbose);
}

TEST(ExperimentFlagsTest, RejectsUnknownFlag) {
  StatusOr<ExperimentOptions> options = Parse({"--nope=1"});
  ASSERT_FALSE(options.ok());
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentFlagsTest, RejectsMalformedNumbers) {
  EXPECT_FALSE(Parse({"--engines=two"}).ok());
  EXPECT_FALSE(Parse({"--theta=big"}).ok());
  EXPECT_FALSE(Parse({"--placement=0.5,x"}).ok());
}

TEST(ExperimentFlagsTest, RejectsOutOfRangeValues) {
  EXPECT_FALSE(Parse({"--engines=0"}).ok());
  EXPECT_FALSE(Parse({"--streams=1"}).ok());
  EXPECT_FALSE(Parse({"--theta=1.5"}).ok());
  EXPECT_FALSE(Parse({"--spill-fraction=1.5"}).ok());
  EXPECT_FALSE(Parse({"--lambda=1"}).ok());
  EXPECT_FALSE(Parse({"--ewma-alpha=2"}).ok());
}

TEST(ExperimentFlagsTest, ParsesGradualSpillFlags) {
  StatusOr<ExperimentOptions> options =
      Parse({"--strategy=spill-only", "--spill-fraction=adaptive",
             "--max-subpartition-depth=6"});
  ASSERT_TRUE(options.ok()) << options.status().message();
  EXPECT_DOUBLE_EQ(options->cluster.spill.spill_fraction, 0.0);
  EXPECT_EQ(options->cluster.spill.max_subpartition_depth, 6);
  // The literal 0 is the same sentinel as 'adaptive'.
  StatusOr<ExperimentOptions> zero =
      Parse({"--strategy=spill-only", "--spill-fraction=0"});
  ASSERT_TRUE(zero.ok()) << zero.status().message();
  EXPECT_DOUBLE_EQ(zero->cluster.spill.spill_fraction, 0.0);
}

TEST(ExperimentFlagsTest, GradualSpillFlagRangesNameTheOffender) {
  for (const char* arg : {"--spill-fraction=-0.1", "--spill-fraction=1.5"}) {
    StatusOr<ExperimentOptions> options =
        Parse({"--strategy=spill-only", arg});
    ASSERT_FALSE(options.ok()) << arg;
    EXPECT_NE(options.status().message().find("--spill-fraction"),
              std::string::npos)
        << options.status().ToString();
  }
  for (const char* arg :
       {"--max-subpartition-depth=-1", "--max-subpartition-depth=13"}) {
    StatusOr<ExperimentOptions> options =
        Parse({"--strategy=spill-only", arg});
    ASSERT_FALSE(options.ok()) << arg;
    EXPECT_NE(options.status().message().find("--max-subpartition-depth"),
              std::string::npos)
        << options.status().ToString();
  }
  // Like every spill knob, the depth needs a spilling strategy.
  StatusOr<ExperimentOptions> wrong_strategy =
      Parse({"--max-subpartition-depth=4"});
  ASSERT_FALSE(wrong_strategy.ok());
  EXPECT_NE(wrong_strategy.status().message().find("--max-subpartition-depth"),
            std::string::npos);
}

TEST(ExperimentFlagsTest, ZipfSkewParsesAndExcludesFluctuation) {
  StatusOr<ExperimentOptions> options = Parse({"--zipf-s=0.8"});
  ASSERT_TRUE(options.ok()) << options.status().message();
  EXPECT_DOUBLE_EQ(options->cluster.workload.zipf_s, 0.8);

  StatusOr<ExperimentOptions> negative = Parse({"--zipf-s=-1"});
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("--zipf-s"), std::string::npos);

  StatusOr<ExperimentOptions> both = Parse({"--zipf-s=0.8", "--fluctuation"});
  ASSERT_FALSE(both.ok());
  EXPECT_NE(both.status().message().find("--zipf-s"), std::string::npos);
  EXPECT_NE(both.status().message().find("--fluctuation"), std::string::npos);
}

TEST(ExperimentFlagsTest, RejectsBadEnumValues) {
  EXPECT_FALSE(Parse({"--strategy=yolo"}).ok());
  EXPECT_FALSE(Parse({"--spill-policy=whatever"}).ok());
  EXPECT_FALSE(Parse({"--relocation-model=magic"}).ok());
  EXPECT_FALSE(Parse({"--productivity=psychic"}).ok());
}

TEST(ExperimentFlagsTest, PlacementMustMatchEngineCount) {
  EXPECT_FALSE(Parse({"--engines=3", "--placement=0.5,0.5"}).ok());
  EXPECT_TRUE(Parse({"--engines=2", "--placement=0.5,0.5"}).ok());
}

TEST(ExperimentFlagsTest, RejectsDuplicateFlags) {
  StatusOr<ExperimentOptions> options =
      Parse({"--engines=3", "--engines=4"});
  ASSERT_FALSE(options.ok());
  EXPECT_EQ(options.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(options.status().message().find("duplicate flag --engines"),
            std::string::npos);
  // Boolean flags too, and duplicates with different values.
  EXPECT_FALSE(Parse({"--restore", "--strategy=lazy-disk", "--restore"}).ok());
  EXPECT_FALSE(Parse({"--seed=1", "--seed=1"}).ok());
  // Same key, one bare and one with a value, is still a duplicate.
  StatusOr<ExperimentOptions> mixed = Parse({"--verbose", "--verbose=1"});
  ASSERT_FALSE(mixed.ok());
  EXPECT_NE(mixed.status().message().find("duplicate flag --verbose"),
            std::string::npos);
}

TEST(ExperimentFlagsTest, UnknownFlagErrorNamesTheFlag) {
  StatusOr<ExperimentOptions> options = Parse({"--warpdrive=9"});
  ASSERT_FALSE(options.ok());
  EXPECT_NE(options.status().message().find("--warpdrive"),
            std::string::npos);
}

TEST(ExperimentFlagsTest, OutOfRangeThetaAndTauNameTheFlag) {
  for (const char* arg : {"--theta=0", "--theta=1", "--theta=-0.3",
                          "--theta=1.01"}) {
    StatusOr<ExperimentOptions> options =
        Parse({"--strategy=lazy-disk", arg});
    ASSERT_FALSE(options.ok()) << arg;
    EXPECT_NE(options.status().message().find("--theta"), std::string::npos)
        << options.status().ToString();
  }
  StatusOr<ExperimentOptions> tau =
      Parse({"--strategy=lazy-disk", "--tau-sec=-1"});
  ASSERT_FALSE(tau.ok());
  EXPECT_NE(tau.status().message().find("--tau-sec"), std::string::npos);
}

TEST(ExperimentFlagsTest, SpillFlagsRequireASpillingStrategy) {
  for (const char* arg :
       {"--restore", "--spill-fraction=0.4", "--spill-policy=push-largest"}) {
    // Default strategy (all-mem) never spills.
    StatusOr<ExperimentOptions> implicit = Parse({arg});
    ASSERT_FALSE(implicit.ok()) << arg;
    const std::string flag_name =
        std::string(arg).substr(0, std::string(arg).find('='));
    EXPECT_NE(implicit.status().message().find(flag_name), std::string::npos)
        << implicit.status().ToString();
    // Explicit non-spilling strategy, either flag order.
    EXPECT_FALSE(Parse({"--strategy=relocation-only", arg}).ok()) << arg;
    EXPECT_FALSE(Parse({arg, "--strategy=relocation-only"}).ok()) << arg;
    // Any spilling strategy accepts it.
    EXPECT_TRUE(Parse({"--strategy=spill-only", arg}).ok()) << arg;
    EXPECT_TRUE(Parse({"--strategy=lazy-disk", arg}).ok()) << arg;
  }
}

TEST(ExperimentFlagsTest, RelocationFlagsRequireARelocatingStrategy) {
  for (const char* arg :
       {"--theta=0.7", "--tau-sec=30", "--relocation-model=pairwise"}) {
    StatusOr<ExperimentOptions> implicit = Parse({arg});
    ASSERT_FALSE(implicit.ok()) << arg;
    const std::string flag_name =
        std::string(arg).substr(0, std::string(arg).find('='));
    EXPECT_NE(implicit.status().message().find(flag_name), std::string::npos)
        << implicit.status().ToString();
    EXPECT_FALSE(Parse({"--strategy=spill-only", arg}).ok()) << arg;
    EXPECT_TRUE(Parse({"--strategy=relocation-only", arg}).ok()) << arg;
    EXPECT_TRUE(Parse({"--strategy=active-disk", arg}).ok()) << arg;
  }
}

TEST(ExperimentFlagsTest, LambdaRequiresActiveDisk) {
  for (const char* strategy :
       {"--strategy=all-mem", "--strategy=spill-only",
        "--strategy=relocation-only", "--strategy=lazy-disk"}) {
    StatusOr<ExperimentOptions> options = Parse({strategy, "--lambda=3"});
    ASSERT_FALSE(options.ok()) << strategy;
    EXPECT_NE(options.status().message().find("--lambda"), std::string::npos);
  }
  EXPECT_TRUE(Parse({"--strategy=active-disk", "--lambda=3"}).ok());
}

TEST(ExperimentFlagsTest, HelpIsAnError) {
  StatusOr<ExperimentOptions> options = Parse({"--help"});
  ASSERT_FALSE(options.ok());
  EXPECT_NE(options.status().message().find("--strategy"),
            std::string::npos);
}

TEST(EnumParseTest, RoundTripsAllValues) {
  for (AdaptationStrategy s :
       {AdaptationStrategy::kNoAdaptation, AdaptationStrategy::kSpillOnly,
        AdaptationStrategy::kRelocationOnly, AdaptationStrategy::kLazyDisk,
        AdaptationStrategy::kActiveDisk}) {
    EXPECT_EQ(ParseStrategy(StrategyName(s)).value(), s);
  }
  for (SpillPolicy p :
       {SpillPolicy::kLeastProductiveFirst, SpillPolicy::kMostProductiveFirst,
        SpillPolicy::kLargestFirst, SpillPolicy::kSmallestFirst,
        SpillPolicy::kRandom}) {
    EXPECT_EQ(ParseSpillPolicy(SpillPolicyName(p)).value(), p);
  }
  for (RelocationModel m :
       {RelocationModel::kPairwise, RelocationModel::kGlobalRebalance}) {
    EXPECT_EQ(ParseRelocationModel(RelocationModelName(m)).value(), m);
  }
}

TEST(ExperimentFlagsTest, RealtimeDefaultsOffAndParses) {
  StatusOr<ExperimentOptions> off = Parse({});
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->realtime);
  EXPECT_FALSE(off->rt_check_oracle);

  StatusOr<ExperimentOptions> on =
      Parse({"--realtime", "--duration-sec=9", "--rate=120000",
             "--check-oracle", "--rt-queue-capacity=1024"});
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on->realtime);
  EXPECT_EQ(on->rt_duration_sec, 9);
  EXPECT_EQ(on->rt_rate, 120000);
  EXPECT_TRUE(on->rt_check_oracle);
  EXPECT_EQ(on->rt_queue_capacity, 1024u);
}

TEST(ExperimentFlagsTest, RealtimeRejectsSimulatorOnlyFlagsByName) {
  // Each conflicting flag is simulator-only; the error must name it so
  // the fix is obvious.
  const std::vector<std::vector<std::string>> cases = {
      {"--realtime", "--duration-min=5"},
      {"--realtime", "--window-sec=60"},
      {"--realtime", "--trace-out=/tmp/t.json"},
      {"--realtime", "--report=timeline"},
  };
  for (const auto& args : cases) {
    StatusOr<ExperimentOptions> options = Parse(args);
    ASSERT_FALSE(options.ok()) << args[1];
    const std::string flag_name = args[1].substr(0, args[1].find('='));
    EXPECT_NE(options.status().message().find(flag_name), std::string::npos)
        << options.status().message();
    EXPECT_NE(options.status().message().find("--realtime"),
              std::string::npos)
        << options.status().message();
  }
}

TEST(ExperimentFlagsTest, RealtimeOnlyFlagsRequireRealtime) {
  const std::vector<std::string> rt_only = {
      "--duration-sec=9", "--rate=1000", "--check-oracle",
      "--rt-queue-capacity=64"};
  for (const std::string& arg : rt_only) {
    StatusOr<ExperimentOptions> options = Parse({arg});
    ASSERT_FALSE(options.ok()) << arg;
    const std::string flag_name = arg.substr(0, arg.find('='));
    EXPECT_NE(options.status().message().find(flag_name), std::string::npos)
        << options.status().message();
    EXPECT_NE(options.status().message().find("requires --realtime"),
              std::string::npos)
        << options.status().message();
  }
}

TEST(ExperimentFlagsTest, RealtimeValueRanges) {
  EXPECT_FALSE(Parse({"--realtime", "--duration-sec=0"}).ok());
  EXPECT_FALSE(Parse({"--realtime", "--rate=-1"}).ok());
  EXPECT_FALSE(Parse({"--realtime", "--rt-queue-capacity=1"}).ok());
}

TEST(ExperimentFlagsTest, RealtimeAllowsSharedFlags) {
  // The whole adaptation / workload surface stays available, and
  // --threads sizes the cleanup pool under both drivers.
  StatusOr<ExperimentOptions> options =
      Parse({"--realtime", "--strategy=lazy-disk", "--engines=4",
             "--streams=3", "--fluctuation", "--csv=/tmp/x.csv",
             "--trace", "--file-backend", "--threads=2"});
  ASSERT_TRUE(options.ok()) << options.status().message();
  EXPECT_TRUE(options->realtime);
  EXPECT_EQ(options->cluster.num_engines, 4);
  EXPECT_EQ(options->cluster.num_threads, 2);
}

}  // namespace
}  // namespace dcape
