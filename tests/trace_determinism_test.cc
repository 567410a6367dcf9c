#include <gtest/gtest.h>

#include <string>

#include "obs/taxonomy.h"
#include "runtime/cluster.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

using testing::SmallClusterConfig;

/// The observability-plane determinism contract: the structured trace is
/// a pure function of the configuration — byte-identical across thread
/// counts and across reruns — because events buffer per lane (appended
/// only by the task stepping that node) and merge on the thread-free key
/// (tick, lane, per-lane emit order).

ClusterConfig TracedConfig() {
  ClusterConfig config = SmallClusterConfig();
  config.trace = true;
  config.run_duration = SecondsToTicks(50);
  // An adaptation-heavy mix so the trace covers relocations and spills.
  config.strategy = AdaptationStrategy::kLazyDisk;
  config.placement_fractions = {0.7, 0.3};
  config.spill.memory_threshold_bytes = 48 * kKiB;
  return config;
}

std::string TraceJsonFor(const ClusterConfig& config) {
  Cluster cluster(config);
  cluster.Run();
  return cluster.tracer()->ToChromeJson();
}

TEST(TraceDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  ClusterConfig config = TracedConfig();
  config.num_threads = 1;
  const std::string serial = TraceJsonFor(config);
  EXPECT_GT(serial.size(), 1000u) << "trace unexpectedly empty";

  config.num_threads = 4;
  EXPECT_EQ(serial, TraceJsonFor(config));

  config.num_threads = 8;
  EXPECT_EQ(serial, TraceJsonFor(config));
}

TEST(TraceDeterminismTest, ByteIdenticalOnRerun) {
  ClusterConfig config = TracedConfig();
  config.num_threads = 2;
  EXPECT_EQ(TraceJsonFor(config), TraceJsonFor(config));
}

TEST(TraceDeterminismTest, SeedChangesTheTrace) {
  ClusterConfig config = TracedConfig();
  const std::string a = TraceJsonFor(config);
  config.workload.seed += 1;
  EXPECT_NE(a, TraceJsonFor(config));
}

TEST(TraceDeterminismTest, SpansBalanceAtQuiescence) {
  ClusterConfig config = TracedConfig();
  Cluster cluster(config);
  cluster.Run();
  for (const std::string& line : cluster.tracer()->OpenSpans()) {
    ADD_FAILURE() << line;
  }
}

TEST(TraceDeterminismTest, TraceContainsTheAdaptationTaxonomy) {
  ClusterConfig config = TracedConfig();
  Cluster cluster(config);
  RunResult result = cluster.Run();
  const std::string json = cluster.tracer()->ToChromeJson();

  if (result.spill_events > 0) {
    EXPECT_NE(json.find(obs::ev::kSpill), std::string::npos);
  }
  if (result.coordinator.relocations_started > 0) {
    EXPECT_NE(json.find(obs::ev::kRelocation), std::string::npos);
    EXPECT_NE(json.find(obs::ev::kRelocDecide), std::string::npos);
  }
  EXPECT_NE(json.find(obs::ev::kStateBytes), std::string::npos);
  EXPECT_NE(json.find(obs::ev::kCleanup), std::string::npos);
}

TEST(TraceDeterminismTest, DisabledTracingHoldsNoTracer) {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(5);
  Cluster cluster(config);
  cluster.Run();
  EXPECT_EQ(cluster.tracer(), nullptr);
}

TEST(TraceDeterminismTest, ResultsUnchangedByTracing) {
  ClusterConfig config = TracedConfig();
  RunResult traced = Cluster(config).Run();
  config.trace = false;
  RunResult untraced = Cluster(config).Run();
  EXPECT_EQ(traced.runtime_results, untraced.runtime_results);
  EXPECT_EQ(traced.spill_events, untraced.spill_events);
  EXPECT_EQ(traced.coordinator.relocations_completed,
            untraced.coordinator.relocations_completed);
}

/// The registry is the single source of truth: RunResult's compatibility
/// counters are views over the same cells.
TEST(MetricsRegistryIntegrationTest, RunResultMatchesRegistry) {
  ClusterConfig config = TracedConfig();
  Cluster cluster(config);
  RunResult result = cluster.Run();
  const obs::MetricsRegistry& registry = cluster.metrics();

  int64_t spilled_bytes = 0;
  int64_t tuples_processed = 0;
  for (int e = 0; e < config.num_engines; ++e) {
    spilled_bytes += registry.Value(obs::m::kSpilledBytes, e);
    tuples_processed += registry.Value(obs::m::kTuplesProcessed, e);
  }
  EXPECT_EQ(result.spilled_bytes, spilled_bytes);
  int64_t result_tuples = 0;
  for (const auto& engine : result.engines) {
    result_tuples += engine.tuples_processed;
  }
  EXPECT_EQ(result_tuples, tuples_processed);
  EXPECT_EQ(result.coordinator.relocations_started,
            registry.Value(obs::m::kRelocationsStarted));

  // The run must spill and clean up, or the checks below compare zeros.
  ASSERT_GT(result.storage.segments_written, 0);
  ASSERT_GT(result.cleanup.blocks_read, 0);
  testing::ExpectStorageAndCleanupMatchRegistry(result, registry);
  testing::ExpectStateMemoryMatchesRegistry(result, registry);
}

}  // namespace
}  // namespace dcape
