#include <gtest/gtest.h>

#include <memory>

#include "cleanup/cleanup.h"
#include "state/partition_group.h"
#include "state/state_manager.h"
#include "storage/disk_backend.h"
#include "storage/spill_store.h"

namespace dcape {
namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload = "payload";
  return t;
}

std::string GroupBlob(PartitionId partition, int num_streams,
                      const std::vector<Tuple>& tuples,
                      SegmentFormat format = SegmentFormat::kV2) {
  PartitionGroup group(partition, num_streams);
  for (const Tuple& t : tuples) group.InsertOnly(t);
  std::string blob;
  group.Serialize(&blob, format);
  return blob;
}

/// A backend whose reads can be poisoned after writing.
class CorruptibleBackend : public DiskBackend {
 public:
  Status Write(const std::string& name, std::string_view data) override {
    return inner_.Write(name, data);
  }
  StatusOr<std::string> Read(const std::string& name) override {
    DCAPE_ASSIGN_OR_RETURN(std::string data, inner_.Read(name));
    if (corrupt_) {
      // Truncate to force a deserialization failure downstream.
      data.resize(data.size() / 2);
    }
    return data;
  }
  Status Remove(const std::string& name) override {
    return inner_.Remove(name);
  }

  void set_corrupt(bool corrupt) { corrupt_ = corrupt; }

 private:
  MemoryDiskBackend inner_;
  bool corrupt_ = false;
};

TEST(FailureInjectionTest, TruncatedSegmentFailsReadWithStatus) {
  auto owned = std::make_unique<CorruptibleBackend>();
  CorruptibleBackend* backend = owned.get();
  SpillStore store(0, SpillStore::Config{}, std::move(owned));
  ASSERT_TRUE(
      store.WriteSegment(0, 10, GroupBlob(0, 2, {MakeTuple(0, 1, 5)}), 1)
          .ok());

  backend->set_corrupt(true);
  // The size check catches the truncation at the store layer.
  StatusOr<std::string> read = store.ReadSegment(store.segments()[0]);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInternal);
}

TEST(FailureInjectionTest, CleanupPropagatesReadFailure) {
  auto owned = std::make_unique<CorruptibleBackend>();
  CorruptibleBackend* backend = owned.get();
  auto store = std::make_unique<SpillStore>(0, SpillStore::Config{},
                                            std::move(owned));
  ASSERT_TRUE(
      store->WriteSegment(0, 10, GroupBlob(0, 2, {MakeTuple(0, 1, 5)}), 1)
          .ok());
  backend->set_corrupt(true);

  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 2, 5), nullptr);
  CleanupProcessor processor(CleanupConfig{}, 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_FALSE(stats.ok()) << "corrupt disk state must not be silently "
                              "treated as empty";
}

TEST(FailureInjectionTest, GarbageBlobRejectedByInstall) {
  StateManager state(2);
  EXPECT_FALSE(state.InstallGroup("complete garbage").ok());
  EXPECT_EQ(state.group_count(), 0);
  EXPECT_EQ(state.total_bytes(), 0);
}

TEST(FailureInjectionTest, TamperedGroupBlobRejected) {
  // These two tests patch fixed v1 offsets, so they pin the v1 format;
  // v2 corruption coverage lives in segment_format_test.
  std::string blob = GroupBlob(3, 2, {MakeTuple(0, 1, 5), MakeTuple(1, 2, 5)},
                               SegmentFormat::kV1);
  // Flip the stream-0 tuple count upward (header = partition i32 +
  // num_streams i32 + outputs i64 = 16 bytes): decoding must fail
  // cleanly (truncated input), not read out of bounds.
  blob[16] = 0x7F;
  StatusOr<PartitionGroup> decoded = PartitionGroup::Deserialize(blob);
  EXPECT_FALSE(decoded.ok());
}

TEST(FailureInjectionTest, MismatchedStreamSectionRejected) {
  // A stream-1 tuple serialized under the stream-0 section.
  PartitionGroup group(0, 2);
  group.InsertOnly(MakeTuple(0, 1, 5));
  std::string blob;
  group.Serialize(&blob, SegmentFormat::kV1);
  // Patch the tuple's stream id (first field after the 3 header fields +
  // stream-0 count): header = 4 + 4 + 8 + 8 = 24 bytes, stream id is an
  // i32 at offset 24.
  blob[24] = 1;
  StatusOr<PartitionGroup> decoded = PartitionGroup::Deserialize(blob);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dcape
