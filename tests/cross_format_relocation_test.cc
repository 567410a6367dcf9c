#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "runtime/cluster.h"
#include "runtime/cluster_config.h"
#include "state/partition_group.h"
#include "state/state_manager.h"
#include "tests/test_util.h"
#include "tuple/tuple.h"

namespace dcape {
namespace {

using testing::AllResults;
using testing::ReferenceResults;
using testing::SmallClusterConfig;
using testing::ToMultiset;

// ----- Unit level: extract in one format, install into a manager of the
// other format (relocation sender/receiver in miniature). InstallGroup
// sniffs the encoding, so each direction must round-trip losslessly.

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key, Tick ts) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = ts;
  t.value = seq * 3 - 40;
  t.category = static_cast<int32_t>(seq % 5);
  t.payload.assign(static_cast<size_t>(8 + seq % 23),
                   static_cast<char>('a' + seq % 26));
  return t;
}

// Fills `manager` with a deterministic mix over two partitions and
// returns the number of tuples inserted.
int64_t Populate(StateManager* manager) {
  std::vector<JoinResult> results;
  int64_t count = 0;
  for (int64_t seq = 0; seq < 240; ++seq) {
    const PartitionId partition = seq % 2 == 0 ? 3 : 9;
    const StreamId stream = static_cast<StreamId>(seq % manager->num_streams());
    manager->ProcessTuple(partition,
                          MakeTuple(stream, seq, /*key=*/seq % 12,
                                    /*ts=*/1000 + seq),
                          &results);
    ++count;
  }
  return count;
}

std::vector<Tuple> CanonicalTuples(const PartitionGroup& group) {
  std::vector<Tuple> all;
  for (StreamId s = 0; s < group.num_streams(); ++s) {
    for (JoinKey key : group.SortedKeysForStream(s)) {
      for (const PartitionGroup::RowRef t : group.KeyTuples(key, s)) {
        all.push_back(t.ToTuple(s, key));
      }
    }
  }
  std::sort(all.begin(), all.end(), [](const Tuple& a, const Tuple& b) {
    if (a.stream_id != b.stream_id) return a.stream_id < b.stream_id;
    if (a.join_key != b.join_key) return a.join_key < b.join_key;
    return a.seq < b.seq;
  });
  return all;
}

void CheckCrossInstall(SegmentFormat sender_format,
                       SegmentFormat receiver_format) {
  StateManager sender(/*num_streams=*/3, std::nullopt, /*window_ticks=*/0,
                      sender_format);
  const int64_t inserted = Populate(&sender);
  ASSERT_EQ(sender.total_tuples(), inserted);

  // Snapshot the sender's groups before extraction destroys them.
  std::vector<std::vector<Tuple>> want;
  for (PartitionId p : {3, 9}) {
    const PartitionGroup* group = sender.FindGroup(p);
    ASSERT_NE(group, nullptr);
    want.push_back(CanonicalTuples(*group));
  }

  std::vector<StateManager::ExtractedGroup> extracted =
      sender.ExtractGroups({3, 9});
  ASSERT_EQ(extracted.size(), 2u);
  EXPECT_EQ(sender.total_tuples(), 0);
  for (const StateManager::ExtractedGroup& g : extracted) {
    if (sender_format == SegmentFormat::kV1) {
      // v1 is the fixed-width raw encoding: blob size == raw size.
      EXPECT_EQ(static_cast<int64_t>(g.blob.size()), g.raw_bytes);
    } else {
      EXPECT_LT(static_cast<int64_t>(g.blob.size()), g.raw_bytes);
    }
  }

  StateManager receiver(/*num_streams=*/3, std::nullopt, /*window_ticks=*/0,
                        receiver_format);
  for (const StateManager::ExtractedGroup& g : extracted) {
    ASSERT_TRUE(receiver.InstallGroup(g.blob).ok());
  }
  EXPECT_EQ(receiver.total_tuples(), inserted);

  for (size_t i = 0; i < 2; ++i) {
    const PartitionId p = i == 0 ? 3 : 9;
    const PartitionGroup* group = receiver.FindGroup(p);
    ASSERT_NE(group, nullptr);
    const std::vector<Tuple> got = CanonicalTuples(*group);
    ASSERT_EQ(got.size(), want[i].size());
    for (size_t j = 0; j < got.size(); ++j) EXPECT_EQ(got[j], want[i][j]);
  }

  // The receiver re-extracts in *its own* format — the state survives a
  // second hop (e.g. relocated again, or spilled at the new owner).
  std::vector<StateManager::ExtractedGroup> rehop =
      receiver.ExtractGroups({3});
  ASSERT_EQ(rehop.size(), 1u);
  StateManager third(/*num_streams=*/3, std::nullopt, /*window_ticks=*/0,
                     receiver_format);
  ASSERT_TRUE(third.InstallGroup(rehop[0].blob).ok());
  const PartitionGroup* group = third.FindGroup(3);
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(CanonicalTuples(*group).size(), want[0].size());
}

TEST(CrossFormatRelocationTest, V1SenderToV2Receiver) {
  CheckCrossInstall(SegmentFormat::kV1, SegmentFormat::kV2);
}

TEST(CrossFormatRelocationTest, V2SenderToV1Receiver) {
  CheckCrossInstall(SegmentFormat::kV2, SegmentFormat::kV1);
}

// ----- Cluster level: a mixed-format cluster with skewed placement, so
// the relocation protocol ships blobs between engines of different
// segment formats. Results must match the all-mem reference exactly.

ClusterConfig MixedFormatConfig(std::vector<SegmentFormat> formats,
                                std::vector<double> placement) {
  ClusterConfig config = SmallClusterConfig();
  config.strategy = AdaptationStrategy::kRelocationOnly;
  config.per_engine_segment_format = std::move(formats);
  config.placement_fractions = std::move(placement);
  config.relocation.theta_r = 0.9;
  config.relocation.min_time_between = SecondsToTicks(3);
  config.relocation.min_relocate_bytes = 2 * kKiB;
  return config;
}

void CheckMixedCluster(std::vector<SegmentFormat> formats,
                       std::vector<double> placement) {
  ClusterConfig config = MixedFormatConfig(std::move(formats),
                                           std::move(placement));
  Cluster cluster(config);
  RunResult result = cluster.Run();
  // The skew must actually force relocations, or the test checks nothing.
  ASSERT_GE(result.coordinator.relocations_completed, 1);
  EXPECT_EQ(ToMultiset(AllResults(result)),
            ToMultiset(ReferenceResults(config)));
}

TEST(CrossFormatRelocationTest, ClusterRelocatesV1StateOntoV2Engine) {
  // Engine 0 (v1) starts overloaded; relocation ships v1 blobs to the
  // v2 engine.
  CheckMixedCluster({SegmentFormat::kV1, SegmentFormat::kV2}, {0.85, 0.15});
}

TEST(CrossFormatRelocationTest, ClusterRelocatesV2StateOntoV1Engine) {
  // Mirror image: engine 0 (v2) overloaded, v2 blobs land on the v1
  // engine.
  CheckMixedCluster({SegmentFormat::kV2, SegmentFormat::kV1}, {0.85, 0.15});
}

// ----- Cluster level, one format per run: v1 and v2 blobs restore
// identical state, so the format choice only changes encoded byte
// counts, never results or adaptation decisions.

TEST(CrossFormatRelocationTest, SegmentFormatDoesNotChangeResults) {
  ClusterConfig config = SmallClusterConfig();
  config.run_duration = SecondsToTicks(40);
  config.strategy = AdaptationStrategy::kSpillOnly;
  config.num_threads = 2;

  config.segment_format = SegmentFormat::kV2;
  RunResult v2 = Cluster(config).Run();
  EXPECT_GT(v2.spill_events, 0);

  config.segment_format = SegmentFormat::kV1;
  RunResult v1 = Cluster(config).Run();

  EXPECT_EQ(v1.runtime_results, v2.runtime_results);
  EXPECT_EQ(v1.cleanup.result_count, v2.cleanup.result_count);
  EXPECT_EQ(v1.spill_events, v2.spill_events);
  EXPECT_EQ(ToMultiset(AllResults(v1)), ToMultiset(AllResults(v2)));
  // The compact format strictly shrinks what lands on disk.
  EXPECT_LT(v2.storage.encoded_bytes, v1.storage.encoded_bytes);
  EXPECT_EQ(v1.storage.raw_bytes, v2.storage.raw_bytes);
}

}  // namespace
}  // namespace dcape
