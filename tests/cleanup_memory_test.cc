#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cleanup/cleanup.h"
#include "common/check.h"
#include "runtime/exec_pool.h"
#include "state/partition_group.h"
#include "storage/disk_backend.h"

namespace dcape {
namespace {

// Peak-memory regression harness for the streaming cleanup: the spilled
// input is at least 8x a fixed resident-byte budget, and the pipeline's
// tracked high-water mark must stay under that budget for every worker
// count — the whole point of the block-cursor merge is that cleanup
// memory is O(in-flight blocks), not O(spilled state).

constexpr int64_t kBudgetBytes = 1 << 20;  // 1 MiB resident budget
constexpr int64_t kBlockBytes = 2 * 1024;
constexpr int kPartitions = 16;
constexpr int kGenerations = 4;
constexpr int kKeysPerGeneration = 64;
constexpr int kMembersPerKey = 17;
constexpr int kNumStreams = 2;

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = 0;
  t.payload.assign(84, 'x');  // 128 v1 bytes per tuple
  return t;
}

struct BigSpill {
  std::unique_ptr<SpillStore> store;
  std::unique_ptr<StateManager> state;
};

/// ~9 MiB of v1-encoded spill: kPartitions x kGenerations dense
/// generations. Almost every key is unique to its generation (so the
/// merge stays cheap); one shared key per partition has one tuple per
/// generation, alternating streams 0, 1, 0, 1, to prove cross-generation
/// results still flow.
BigSpill BuildBigSpill() {
  BigSpill out;
  out.store = std::make_unique<SpillStore>(
      0, SpillStore::Config{}, std::make_unique<MemoryDiskBackend>());
  out.state = std::make_unique<StateManager>(kNumStreams);
  int64_t seq = 1;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    const JoinKey shared_key = 10'000'000 + p;
    for (int g = 0; g < kGenerations; ++g) {
      PartitionGroup group(p, kNumStreams);
      const JoinKey base =
          static_cast<JoinKey>((p * kGenerations + g) * 4096);
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

TEST(CleanupMemoryTest, PeakResidentBytesStayUnderBudget) {
  {
    // Precondition: the layout really is >= 8x the budget on disk.
    BigSpill probe = BuildBigSpill();
    ASSERT_GE(probe.store->total_spilled_bytes(), 8 * kBudgetBytes);
  }

  CleanupConfig config;
  config.collect_results = true;
  config.block_bytes = kBlockBytes;
  CleanupProcessor processor(config, kNumStreams);

  std::optional<CleanupStats> reference;
  for (int workers : {1, 4, 8}) {
    BigSpill spill = BuildBigSpill();
    ExecPool pool(workers);
    StatusOr<CleanupStats> stats =
        processor.Run({spill.store.get()}, {spill.state.get()}, &pool);
    ASSERT_TRUE(stats.ok()) << "workers=" << workers;

    // Every spilled byte was consumed, through blocks, under budget.
    EXPECT_EQ(stats->bytes_read, spill.store->total_spilled_bytes())
        << "workers=" << workers;
    EXPECT_GT(stats->peak_resident_bytes, 0) << "workers=" << workers;
    EXPECT_LT(stats->peak_resident_bytes, kBudgetBytes)
        << "workers=" << workers;
    EXPECT_EQ(stats->resident_bytes_leaked, 0) << "workers=" << workers;
    EXPECT_GE(stats->blocks_read,
              stats->bytes_read / kBlockBytes)
        << "workers=" << workers;

    // The shared key spans every generation: each partition owes its
    // 2 x 2 stream-0 x stream-1 pairs, all across generations; every
    // other key lives in one generation and owes nothing.
    EXPECT_EQ(stats->result_count, kPartitions * 4) << "workers=" << workers;
    EXPECT_EQ(stats->total_ticks, ExpectedTotalTicks(*spill.store))
        << "workers=" << workers;

    // Deterministic fields are identical for every worker count.
    if (!reference.has_value()) {
      reference = std::move(stats).value();
    } else {
      EXPECT_EQ(stats->result_count, reference->result_count)
          << "workers=" << workers;
      EXPECT_EQ(stats->total_ticks, reference->total_ticks)
          << "workers=" << workers;
      EXPECT_EQ(stats->engine_ticks, reference->engine_ticks)
          << "workers=" << workers;
      EXPECT_EQ(stats->blocks_read, reference->blocks_read)
          << "workers=" << workers;
      ASSERT_EQ(stats->results.size(), reference->results.size())
          << "workers=" << workers;
      for (size_t i = 0; i < reference->results.size(); ++i) {
        EXPECT_EQ(stats->results[i].EncodeKey(),
                  reference->results[i].EncodeKey())
            << "workers=" << workers << " result " << i;
      }
    }
  }
}

}  // namespace
}  // namespace dcape
