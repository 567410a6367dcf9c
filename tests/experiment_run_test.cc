#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "metrics/csv.h"
#include "runtime/cluster.h"
#include "runtime/experiment_flags.h"
#include "stream/trace.h"
#include "tests/test_util.h"

namespace dcape {
namespace {

/// End-to-end tests of the experiment-driver plumbing: parsed flag sets
/// must produce runnable clusters, and the CSV/trace side channels must
/// round-trip.

TEST(ExperimentRunTest, ParsedFlagsProduceARunnableCluster) {
  StatusOr<ExperimentOptions> options = ParseExperimentFlags(
      {"--strategy=lazy-disk", "--engines=2", "--partitions=12",
       "--duration-min=1", "--inter-arrival-ms=10", "--join-rate=1",
       "--tuple-range=480", "--threshold-kib=96", "--placement=0.75,0.25",
       "--tau-sec=5", "--seed=7"});
  ASSERT_TRUE(options.ok());
  Cluster cluster(options->cluster);
  RunResult result = cluster.Run();
  EXPECT_GT(result.runtime_results, 0);
  EXPECT_GT(result.spill_events + result.coordinator.relocations_completed,
            0);
}

TEST(ExperimentRunTest, CsvSeriesRoundTrip) {
  ClusterConfig config = testing::SmallClusterConfig();
  config.run_duration = SecondsToTicks(20);
  config.collect_results = false;
  config.cleanup.collect_results = false;
  RunResult result = Cluster(config).Run();

  std::string path = (std::filesystem::temp_directory_path() /
                      "dcape_experiment_run.csv")
                         .string();
  std::vector<const TimeSeries*> series = {&result.throughput};
  for (const TimeSeries& m : result.engine_memory) series.push_back(&m);
  ASSERT_TRUE(WriteSeriesCsv(path, series).ok());

  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header, "tick,cumulative_results,engine0_bytes,engine1_bytes");
  int rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  EXPECT_EQ(rows, static_cast<int>(result.throughput.size()));
  std::filesystem::remove(path);
}

TEST(ExperimentRunTest, TraceFileRecordReplayViaConfig) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "dcape_experiment_run.trace")
                         .string();
  ClusterConfig record = testing::SmallClusterConfig();
  record.run_duration = SecondsToTicks(20);
  record.record_trace = std::make_shared<std::string>();
  RunResult recorded = Cluster(record).Run();
  ASSERT_TRUE(WriteTraceFile(path, *record.record_trace).ok());

  StatusOr<std::string> bytes = ReadTraceFile(path);
  ASSERT_TRUE(bytes.ok());
  ClusterConfig replay = testing::SmallClusterConfig();
  replay.run_duration = SecondsToTicks(20);
  replay.replay_trace = std::make_shared<const std::string>(*bytes);
  RunResult replayed = Cluster(replay).Run();
  EXPECT_EQ(replayed.tuples_generated, recorded.tuples_generated);
  EXPECT_EQ(replayed.runtime_results, recorded.runtime_results);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace dcape
