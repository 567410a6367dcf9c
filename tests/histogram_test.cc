#include "metrics/histogram.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/cluster.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

TEST(HistogramTest, EmptyIsZeroEverything) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Quantile(0.5), 0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int64_t v : {1, 2, 3, 4, 10}) h.Add(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 20);
  EXPECT_DOUBLE_EQ(h.Mean(), 4.0);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 10);
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.count(), 1);
}

TEST(HistogramTest, QuantileWithinFactorOfTwo) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Add(100);  // all samples equal
  const int64_t p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 100);
  EXPECT_LE(p50, 200);  // log-bucket upper bound, clamped to max... = 100
  EXPECT_EQ(h.Quantile(0.99), p50);
}

TEST(HistogramTest, QuantilesOrdered) {
  Histogram h;
  for (int64_t v = 1; v <= 10000; ++v) h.Add(v);
  const int64_t p10 = h.Quantile(0.10);
  const int64_t p50 = h.Quantile(0.50);
  const int64_t p99 = h.Quantile(0.99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  // p50 of uniform 1..10000 is ~5000; bucket bound within 2x.
  EXPECT_GE(p50, 5000);
  EXPECT_LE(p50, 10000);
  EXPECT_LE(p99, 10000);  // clamped to observed max
}

TEST(HistogramTest, AddWithCountEqualsRepeatedAdds) {
  // (value, count) pairs across buckets, a negative value, a zero count
  // and a first sample larger than later ones.
  const std::vector<std::pair<int64_t, int64_t>> samples = {
      {900, 3}, {0, 2}, {-7, 4}, {5, 0}, {65536, 1}, {37, 250}, {3, 17}};
  Histogram counted;
  Histogram repeated;
  for (const auto& [value, count] : samples) {
    counted.Add(value, count);
    for (int64_t i = 0; i < count; ++i) repeated.Add(value);
  }
  EXPECT_EQ(counted.count(), repeated.count());
  EXPECT_EQ(counted.count(), 277);
  EXPECT_EQ(counted.sum(), repeated.sum());
  EXPECT_EQ(counted.min(), repeated.min());
  EXPECT_EQ(counted.max(), repeated.max());
  EXPECT_DOUBLE_EQ(counted.Mean(), repeated.Mean());
  for (int i = 0; i <= 100; ++i) {
    const double q = i / 100.0;
    EXPECT_EQ(counted.Quantile(q), repeated.Quantile(q)) << "q = " << q;
  }
  // A zero count records nothing, not even a min or max.
  Histogram empty;
  empty.Add(42, 0);
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(empty.max(), 0);
}

TEST(HistogramTest, MaxClampsBucketBound) {
  Histogram h;
  h.Add(5);  // bucket [4,8) → upper bound 8, clamped to max 5
  EXPECT_EQ(h.Quantile(1.0), 5);
}

TEST(LatencyTrackingTest, RuntimeResultsHaveSmallPipelineLatency) {
  // All-memory run: a result is producible the instant its last member
  // arrives; delivery adds only the split-hop, engine-hop and sink-hop
  // network latencies (a few virtual ms).
  ClusterConfig config = testing::SmallClusterConfig();
  config.run_duration = SecondsToTicks(30);
  config.collect_results = false;
  config.cleanup.collect_results = false;
  config.strategy = AdaptationStrategy::kNoAdaptation;
  RunResult result = Cluster(config).Run();

  ASSERT_GT(result.runtime_latency.count(), 0);
  EXPECT_EQ(result.runtime_latency.count(), result.runtime_results);
  EXPECT_GE(result.runtime_latency.min(), 0);
  EXPECT_LE(result.runtime_latency.Quantile(0.5), 32)
      << "unloaded pipeline latency should be a handful of virtual ms";
}

TEST(LatencyTrackingTest, SpillIoInflatesTailLatency) {
  ClusterConfig config = testing::SmallClusterConfig();
  config.run_duration = MinutesToTicks(1);
  config.collect_results = false;
  config.cleanup.collect_results = false;
  // Slow disk: spills hold the engine busy, queueing input.
  config.disk.write_bytes_per_tick = 2000;

  ClusterConfig all_mem = config;
  all_mem.strategy = AdaptationStrategy::kNoAdaptation;
  RunResult baseline = Cluster(all_mem).Run();

  config.strategy = AdaptationStrategy::kSpillOnly;
  config.spill.memory_threshold_bytes = 64 * kKiB;
  RunResult spilling = Cluster(config).Run();
  ASSERT_GT(spilling.spill_events, 0);

  EXPECT_GT(spilling.runtime_latency.Quantile(0.99),
            baseline.runtime_latency.Quantile(0.99))
      << "disk-busy periods must show up in the latency tail";
}

}  // namespace
}  // namespace dcape
