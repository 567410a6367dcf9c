#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rt/realtime_driver.h"
#include "runtime/cluster.h"
#include "sim/oracle.h"
#include "test_util.h"

namespace dcape {
namespace rt {
namespace {

/// Runs `config` on the realtime driver, then replays the identical
/// input (the exact tick range the wall-clock generator covered) on the
/// deterministic virtual-clock simulator, and requires the two runs to
/// agree on the complete output multiset and the per-stream processed
/// counts — the differential-oracle guarantee of docs/REALTIME.md.
void ExpectMatchesVirtualOracle(ClusterConfig config,
                                const RealtimeOptions& options,
                                RunResult* realtime_out = nullptr) {
  config.collect_results = true;
  config.cleanup.collect_results = true;

  RealtimeDriver driver(config, options);
  RunResult realtime = driver.Run();
  const RealtimeReport& report = driver.report();
  ASSERT_GT(report.tuples_generated, 0);
  ASSERT_GT(report.ticks_run, 0);

  // Golden: no adaptation, single-threaded, virtual clock — the
  // configuration whose correctness the tier-1 suite establishes.
  ClusterConfig golden_config = config;
  golden_config.strategy = AdaptationStrategy::kNoAdaptation;
  golden_config.num_threads = 1;
  golden_config.use_file_backend = false;
  golden_config.run_duration = report.ticks_run;
  Cluster golden_cluster(golden_config);
  RunResult golden = golden_cluster.Run();

  // Same input…
  EXPECT_EQ(realtime.tuples_generated, golden.tuples_generated);
  // …same output, as a sorted multiset (std::map orders the keys), no
  // matter how wall-clock timing interleaved spills and batches.
  std::vector<std::string> violations;
  sim::DiffOutputs(sim::ResultMultiset(realtime), sim::ResultMultiset(golden),
                   &violations);
  for (const std::string& v : violations) ADD_FAILURE() << v;
  // …and the same per-stream accounting, summed over engines.
  EXPECT_EQ(sim::PerStreamProcessed(realtime, config.workload.num_streams),
            sim::PerStreamProcessed(golden, config.workload.num_streams));
  if (realtime_out != nullptr) *realtime_out = std::move(realtime);
}

TEST(RealtimeOracleTest, AllMemMatchesVirtualRun) {
  ClusterConfig config = testing::SmallClusterConfig();
  config.strategy = AdaptationStrategy::kNoAdaptation;
  RealtimeOptions options;
  options.duration_sec = 1;
  options.rate = 10000;
  ExpectMatchesVirtualOracle(config, options);
}

TEST(RealtimeOracleTest, SpillOnlyUnderWallClockTimersMatchesVirtualRun) {
  // A threshold far below the run's state footprint, so the engines'
  // wall-clock spill timers actually fire mid-run (the adaptation path
  // whose timing differs most from the simulator).
  ClusterConfig config = testing::SmallClusterConfig();
  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 32 * kKiB;
  // Sparser key space than SmallClusterConfig's 480: at 40k input
  // tuples, a dense key space would join into millions of results and
  // the test would spend minutes comparing multisets. State size (what
  // spilling reacts to) is unaffected.
  config.workload.classes[0].tuple_range = 24000;
  RealtimeOptions options;
  options.duration_sec = 2;
  options.rate = 20000;
  ExpectMatchesVirtualOracle(config, options);
}

TEST(RealtimeOracleTest, GradualPartialSpillMatchesVirtualRun) {
  // Gradual hot/cold spilling under wall-clock timers: adaptive target
  // sizing plus recursive sub-partitioning, with a threshold low enough
  // that spill plans routinely end in a bucket-granular (partial)
  // request. The realtime run's output must still replay exactly on the
  // virtual-clock oracle.
  ClusterConfig config = testing::SmallClusterConfig();
  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 24 * kKiB;
  config.spill.spill_fraction = 0.0;  // adaptive sizing
  config.spill.max_subpartition_depth = 4;
  config.workload.classes[0].tuple_range = 24000;
  RealtimeOptions options;
  options.duration_sec = 2;
  options.rate = 20000;
  RunResult realtime;
  ExpectMatchesVirtualOracle(config, options, &realtime);
  // The run must have actually exercised the gradual path: at least one
  // bucket-granular segment hit the spill area.
  EXPECT_GT(realtime.storage.partial_segments_written, 0);
}

TEST(RealtimeOracleTest, FreeRunMatchesVirtualRun) {
  // Free-run (rate=0): the generator advances the tick cursor as fast
  // as backpressure admits; whatever prefix it reaches must still replay
  // exactly.
  ClusterConfig config = testing::SmallClusterConfig();
  config.strategy = AdaptationStrategy::kNoAdaptation;
  // Every tick emits tuples (no empty cursor spins), so the free-running
  // generator is bounded by real per-tick work and the golden replay
  // walks the same dense tick range; the sparse key space keeps the
  // result sets comparable in milliseconds.
  config.workload.inter_arrival_ticks = 1;
  config.workload.classes[0].tuple_range = 48000;
  RealtimeOptions options;
  options.duration_sec = 1;
  options.rate = 0;
  options.link_capacity = 256;  // small rings: exercise backpressure
  ExpectMatchesVirtualOracle(config, options);
}

TEST(RealtimeOracleTest, RelocationWhileBehindSchedule) {
  // A free-running generator is always behind schedule, so every
  // emission coalesces the driver's full cap of ticks: multi-tick
  // batches sit in the rings and in the paused split while a relocation
  // moves state off the overloaded engine. The 0.9/0.1 placement makes
  // the first relocation check (after 1 s) find the imbalance. Stats
  // come every 0.5 s so that check already holds both engines' reports:
  // with 1 s reports it races them, and the next check (2 s) races the
  // end of generation, which a loaded host can lose.
  ClusterConfig config = testing::SmallClusterConfig();
  config.strategy = AdaptationStrategy::kRelocationOnly;
  config.placement_fractions = {0.9, 0.1};
  config.relocation.theta_r = 0.55;
  config.relocation.sr_timer_period = SecondsToTicks(1);
  config.relocation.min_time_between = SecondsToTicks(1);
  config.stats_period = SecondsToTicks(1) / 2;
  config.workload.inter_arrival_ticks = 1;
  // Sparse keys keep the multiset comparison fast at ~1M input tuples.
  config.workload.classes[0].tuple_range = 960000;
  RealtimeOptions options;
  options.duration_sec = 2;
  options.rate = 0;
  RunResult realtime;
  ExpectMatchesVirtualOracle(config, options, &realtime);
  EXPECT_GE(realtime.coordinator.relocations_completed, 1);
  // Batches carry many ticks: far fewer messages than tuples.
  EXPECT_LT(realtime.network.messages_sent * 4, realtime.tuples_generated);
}

TEST(RealtimeOracleTest, RunResultMatchesRegistry) {
  // The realtime twin of MetricsRegistryIntegrationTest's check
  // (trace_determinism_test.cc): the spill-only run's storage counters
  // and cleanup stats must read what the driver's registry holds.
  ClusterConfig config = testing::SmallClusterConfig();
  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 32 * kKiB;
  config.workload.classes[0].tuple_range = 24000;
  config.collect_results = false;
  config.cleanup.collect_results = false;
  RealtimeOptions options;
  options.duration_sec = 2;
  options.rate = 20000;
  RealtimeDriver driver(config, options);
  RunResult result = driver.Run();
  // Cleanup must have read spilled segments, or the gauges stay zero on
  // both sides.
  ASSERT_GT(result.cleanup.segments_read, 0);
  ASSERT_GT(result.cleanup.blocks_prefetched, 0);
  testing::ExpectStorageAndCleanupMatchRegistry(result, driver.metrics());
  testing::ExpectStateMemoryMatchesRegistry(result, driver.metrics());
}

TEST(RealtimeOracleTest, ReportsSustainedRates) {
  ClusterConfig config = testing::SmallClusterConfig();
  config.strategy = AdaptationStrategy::kNoAdaptation;
  config.collect_results = false;
  config.cleanup.collect_results = false;
  RealtimeOptions options;
  options.duration_sec = 1;
  options.rate = 10000;
  RealtimeDriver driver(config, options);
  RunResult result = driver.Run();
  const RealtimeReport& report = driver.report();
  // 10k tuples/sec for 1s, within generous scheduling slack.
  EXPECT_GT(report.tuples_generated, 8000);
  EXPECT_LT(report.tuples_generated, 13000);
  EXPECT_GT(report.tuples_per_sec, 0);
  EXPECT_GE(report.generate_wall_sec, 1.0);
  EXPECT_EQ(result.tuples_generated, report.tuples_generated);
  // End-to-end latency was measured for the direct result path.
  EXPECT_GT(report.latency_us.count(), 0);
  EXPECT_EQ(report.engine_threads, config.num_engines);
}

}  // namespace
}  // namespace rt
}  // namespace dcape
