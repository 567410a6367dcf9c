#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cleanup/cleanup.h"
#include "common/check.h"
#include "runtime/exec_pool.h"
#include "state/partition_group.h"
#include "storage/disk_backend.h"

namespace dcape {
namespace {

// Large-spill streaming-cleanup stress (labeled "slow"): ~64 MiB of
// real on-disk segments, consumed by the block-cursor merge under a
// resident budget two orders of magnitude smaller than the input, with
// the result count and cleanup ticks checked against their closed
// forms. This is the CI `cleanup-stress` job's workhorse.

constexpr int64_t kBlockBytes = 16 * 1024;
constexpr int64_t kBudgetBytes = 4 << 20;  // 4 MiB resident budget
constexpr int kPartitions = 32;
constexpr int kGenerations = 4;
constexpr int kKeysPerGeneration = 128;
constexpr int kMembersPerKey = 33;
constexpr int kNumStreams = 2;

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload.assign(84, 's');  // 128 v1 bytes per tuple
  return t;
}

struct BigSpill {
  std::unique_ptr<SpillStore> store;
  std::unique_ptr<StateManager> state;
};

BigSpill BuildBigSpill(const std::string& dir) {
  BigSpill out;
  out.store = std::make_unique<SpillStore>(
      0, SpillStore::Config{}, std::make_unique<FileDiskBackend>(dir));
  out.state = std::make_unique<StateManager>(kNumStreams);
  int64_t seq = 1;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    const JoinKey shared_key = 100'000'000 + p;
    for (int g = 0; g < kGenerations; ++g) {
      PartitionGroup group(p, kNumStreams);
      const JoinKey base =
          static_cast<JoinKey>((p * kGenerations + g) * 65536);
      for (int k = 0; k < kKeysPerGeneration; ++k) {
        for (int m = 0; m < kMembersPerKey; ++m) {
          group.InsertOnly(MakeTuple(
              static_cast<StreamId>(m % kNumStreams), seq++, base + k));
        }
      }
      group.InsertOnly(MakeTuple(static_cast<StreamId>(g % kNumStreams),
                                 seq++, shared_key));
      std::string blob;
      group.Serialize(&blob, SegmentFormat::kV1);
      StatusOr<Tick> written = out.store->WriteSegment(
          p, 10 + g, blob, kKeysPerGeneration * kMembersPerKey + 1);
      DCAPE_CHECK(written.ok());
    }
  }
  return out;
}

/// Closed-form cleanup ticks of a BigSpill: one engine reads every
/// segment (⌈bytes / read bandwidth⌉ each), and each partition's 4
/// results cost one tick of join CPU at that engine; nothing crosses
/// the network.
Tick ExpectedTotalTicks(const SpillStore& store) {
  const int64_t read_bw = store.config().read_bytes_per_tick;
  Tick ticks = 0;
  for (const SpillSegmentMeta& meta : store.segments()) {
    ticks += (meta.bytes + read_bw - 1) / read_bw;
  }
  return ticks + kPartitions;
}

TEST(CleanupStressTest, LargeOnDiskSpillStreamsUnderBudget) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dcape_cleanup_stress")
          .string();
  std::filesystem::remove_all(dir);

  BigSpill spill = BuildBigSpill(dir);
  const int64_t spilled = spill.store->total_spilled_bytes();
  ASSERT_GE(spilled, 8 * kBudgetBytes);  // >= 32 MiB; ~64 MiB in practice

  CleanupConfig config;
  config.collect_results = false;  // count, do not accumulate
  config.block_bytes = kBlockBytes;
  int64_t sunk = 0;
  config.result_sink = [&sunk](const JoinResult&) { ++sunk; };
  CleanupProcessor processor(config, kNumStreams);
  ExecPool pool(4);
  StatusOr<CleanupStats> stream =
      processor.Run({spill.store.get()}, {spill.state.get()}, &pool);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->bytes_read, spilled);
  EXPECT_GT(stream->peak_resident_bytes, 0);
  EXPECT_LT(stream->peak_resident_bytes, kBudgetBytes);
  EXPECT_EQ(stream->blocks_prefetched, stream->blocks_completed);
  EXPECT_EQ(stream->resident_bytes_leaked, 0);
  EXPECT_EQ(sunk, stream->result_count);
  // Each partition's shared key has one tuple per generation on
  // alternating streams 0, 1, 0, 1: 2 x 2 pairs, all across
  // generations. Every other key lives in one generation.
  EXPECT_EQ(stream->result_count, kPartitions * 4);
  EXPECT_EQ(stream->total_ticks, ExpectedTotalTicks(*spill.store));

  spill.store.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dcape
