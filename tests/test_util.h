#ifndef DCAPE_TESTS_TEST_UTIL_H_
#define DCAPE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/taxonomy.h"
#include "runtime/cluster.h"
#include "runtime/cluster_config.h"
#include "runtime/run_result.h"
#include "tuple/tuple.h"

namespace dcape {
namespace testing {

/// Keeps every message sent, in send order, without delivering it.
class RecordingTransport : public Transport {
 public:
  void RegisterNode(NodeId, Handler) override {}
  void Send(Message message, Tick) override {
    sent.push_back(std::move(message));
  }
  std::vector<Message> sent;
};

/// A small, fast workload: 3-way join, 12 partitions, ~40 distinct keys
/// per partition, a couple of thousand tuples per stream in a 1-minute
/// virtual run. Small enough to collect and compare full result sets.
inline ClusterConfig SmallClusterConfig() {
  ClusterConfig config;
  config.num_engines = 2;
  config.workload.num_streams = 3;
  config.workload.num_partitions = 12;
  config.workload.inter_arrival_ticks = 10;
  config.workload.payload_bytes = 40;
  config.workload.classes = {PartitionClass{/*join_rate=*/1.0,
                                            /*tuple_range=*/5760}};
  // keys per partition = 5760 / (1.0 * 12) = 480 … too sparse for a short
  // run; shrink so each key sees a handful of matches:
  config.workload.classes[0].tuple_range = 480;  // -> 40 keys/partition
  config.workload.seed = 7;
  config.run_duration = MinutesToTicks(1);
  config.sample_period = SecondsToTicks(5);
  config.stats_period = SecondsToTicks(2);
  config.collect_results = true;
  config.run_cleanup = true;
  config.spill.memory_threshold_bytes = 96 * kKiB;
  config.spill.ss_timer_period = SecondsToTicks(1);
  config.relocation.sr_timer_period = SecondsToTicks(2);
  config.relocation.min_time_between = SecondsToTicks(5);
  config.relocation.min_relocate_bytes = 4 * kKiB;
  config.active_disk.lb_timer_period = SecondsToTicks(3);
  config.active_disk.max_forced_spill_bytes = 512 * kKiB;
  config.cleanup.collect_results = true;
  return config;
}

/// Encodes each result once; duplicates surface as count > 1.
inline std::map<std::string, int> ToMultiset(
    const std::vector<JoinResult>& results) {
  std::map<std::string, int> multiset;
  for (const JoinResult& r : results) multiset[r.EncodeKey()] += 1;
  return multiset;
}

/// All results of a finished run: runtime (sink-collected) + cleanup.
inline std::vector<JoinResult> AllResults(const RunResult& result) {
  std::vector<JoinResult> all = result.collected;
  all.insert(all.end(), result.cleanup.results.begin(),
             result.cleanup.results.end());
  return all;
}

/// Runs the reference configuration: identical workload, everything in
/// memory (no adaptation), collecting all results. Because workloads are
/// seed-deterministic, any strategy run over the same config must produce
/// exactly this result set (runtime ∪ cleanup).
inline std::vector<JoinResult> ReferenceResults(ClusterConfig config) {
  config.strategy = AdaptationStrategy::kNoAdaptation;
  config.collect_results = true;
  config.run_cleanup = true;  // must find nothing; callers may assert
  Cluster cluster(config);
  RunResult result = cluster.Run();
  return AllResults(result);
}

/// The registry is the single source of truth: a finished run's storage
/// counters (per engine and summed) and its cleanup stats must read the
/// same values as the registry's storage.* cells and cleanup.* gauges,
/// whichever driver produced them.
inline void ExpectStorageAndCleanupMatchRegistry(
    const RunResult& result, const obs::MetricsRegistry& registry) {
  StorageCounters sum;
  for (size_t e = 0; e < result.engine_storage.size(); ++e) {
    const int entity = static_cast<int>(e);
    const StorageCounters& storage = result.engine_storage[e];
    EXPECT_EQ(storage.segments_written,
              registry.Value(obs::m::kSegmentsWritten, entity))
        << "engine " << e;
    EXPECT_EQ(storage.encoded_bytes,
              registry.Value(obs::m::kEncodedBytes, entity))
        << "engine " << e;
    EXPECT_EQ(storage.partial_segments_written,
              registry.Value(obs::m::kPartialSegmentsWritten, entity))
        << "engine " << e;
    sum.segments_written += storage.segments_written;
    sum.encoded_bytes += storage.encoded_bytes;
    sum.partial_segments_written += storage.partial_segments_written;
  }
  EXPECT_EQ(result.storage.segments_written, sum.segments_written);
  EXPECT_EQ(result.storage.encoded_bytes, sum.encoded_bytes);
  EXPECT_EQ(result.storage.partial_segments_written,
            sum.partial_segments_written);

  EXPECT_EQ(result.cleanup.peak_resident_bytes,
            registry.Value(obs::m::kCleanupPeakResidentBytes));
  EXPECT_EQ(result.cleanup.blocks_read,
            registry.Value(obs::m::kCleanupBlocksRead));
}

/// The engines' join-state memory peaks in RunResult must read what the
/// registry holds. Resident bytes (index plus arena capacity) can never
/// be below the tracked bytes, whose rows they store.
inline void ExpectStateMemoryMatchesRegistry(
    const RunResult& result, const obs::MetricsRegistry& registry) {
  for (size_t e = 0; e < result.engines.size(); ++e) {
    const int entity = static_cast<int>(e);
    const QueryEngine::Counters& engine = result.engines[e];
    EXPECT_EQ(engine.peak_state_tracked_bytes,
              registry.Value(obs::m::kStateTrackedBytes, entity))
        << "engine " << e;
    EXPECT_EQ(engine.peak_state_resident_bytes,
              registry.Value(obs::m::kStateResidentBytes, entity))
        << "engine " << e;
    EXPECT_GT(engine.peak_state_tracked_bytes, 0) << "engine " << e;
    EXPECT_GE(engine.peak_state_resident_bytes,
              engine.peak_state_tracked_bytes)
        << "engine " << e;
  }
}

}  // namespace testing
}  // namespace dcape

#endif  // DCAPE_TESTS_TEST_UTIL_H_
