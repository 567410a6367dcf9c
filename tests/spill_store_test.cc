#include "storage/spill_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "storage/disk_backend.h"

namespace dcape {
namespace {

SpillStore MakeStore(int64_t write_bw = 100, int64_t read_bw = 200) {
  SpillStore::Config config;
  config.write_bytes_per_tick = write_bw;
  config.read_bytes_per_tick = read_bw;
  return SpillStore(/*engine=*/3, config,
                    std::make_unique<MemoryDiskBackend>());
}

TEST(SpillStoreTest, WriteSegmentRecordsMetadata) {
  SpillStore store = MakeStore();
  std::string blob(250, 'a');
  StatusOr<Tick> io = store.WriteSegment(7, /*now=*/1000, blob, 42);
  ASSERT_TRUE(io.ok());
  EXPECT_EQ(*io, 3);  // ceil(250 / 100)

  ASSERT_EQ(store.segments().size(), 1u);
  const SpillSegmentMeta& meta = store.segments()[0];
  EXPECT_EQ(meta.engine, 3);
  EXPECT_EQ(meta.partition, 7);
  EXPECT_EQ(meta.segment_id, 0);
  EXPECT_EQ(meta.spill_time, 1000);
  EXPECT_EQ(meta.bytes, 250);
  EXPECT_EQ(meta.tuple_count, 42);
  EXPECT_EQ(store.total_spilled_bytes(), 250);
}

TEST(SpillStoreTest, ReadSegmentRoundTripWithCost) {
  SpillStore store = MakeStore();
  std::string blob(1000, 'b');
  ASSERT_TRUE(store.WriteSegment(1, 0, blob, 10).ok());
  Tick io = 0;
  StatusOr<std::string> read = store.ReadSegment(store.segments()[0], &io);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, blob);
  EXPECT_EQ(io, 5);  // ceil(1000 / 200)
}

TEST(SpillStoreTest, MultipleGenerationsOfSamePartition) {
  SpillStore store = MakeStore();
  ASSERT_TRUE(store.WriteSegment(5, 100, "gen0", 1).ok());
  ASSERT_TRUE(store.WriteSegment(5, 200, "gen1!", 2).ok());
  ASSERT_TRUE(store.WriteSegment(9, 300, "other", 3).ok());
  EXPECT_EQ(store.segment_count(), 3);
  EXPECT_EQ(store.segments()[0].segment_id, 0);
  EXPECT_EQ(store.segments()[1].segment_id, 1);
  EXPECT_EQ(store.segments()[1].spill_time, 200);
  EXPECT_EQ(store.ReadSegment(store.segments()[0]).value(), "gen0");
  EXPECT_EQ(store.ReadSegment(store.segments()[1]).value(), "gen1!");
  EXPECT_EQ(store.total_spilled_bytes(), 14);
}

TEST(SpillStoreTest, IoCostRoundsUp) {
  SpillStore store = MakeStore(/*write_bw=*/100);
  EXPECT_EQ(store.WriteSegment(0, 0, std::string(1, 'x'), 1).value(), 1);
  EXPECT_EQ(store.WriteSegment(0, 0, std::string(100, 'x'), 1).value(), 1);
  EXPECT_EQ(store.WriteSegment(0, 0, std::string(101, 'x'), 1).value(), 2);
}

TEST(SpillStoreTest, RemoveSegmentByIdAndAccounting) {
  SpillStore store = MakeStore();
  ASSERT_TRUE(store.WriteSegment(1, 0, "aaaa", 1).ok());
  ASSERT_TRUE(store.WriteSegment(2, 0, "bbbbbb", 2).ok());
  ASSERT_TRUE(store.WriteSegment(3, 0, "cc", 3).ok());
  EXPECT_EQ(store.segments_written(), 3);
  EXPECT_EQ(store.resident_bytes(), 12);

  // Remove the middle segment; lookup is by id, not position.
  ASSERT_TRUE(store.RemoveSegment(1).ok());
  EXPECT_EQ(store.segment_count(), 2);
  EXPECT_EQ(store.segments()[0].segment_id, 0);
  EXPECT_EQ(store.segments()[1].segment_id, 2);
  EXPECT_EQ(store.resident_bytes(), 6);
  // Cumulative counters never decrease.
  EXPECT_EQ(store.segments_written(), 3);
  EXPECT_EQ(store.total_spilled_bytes(), 12);

  EXPECT_EQ(store.RemoveSegment(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.RemoveSegment(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.RemoveSegment(0).ok());
  ASSERT_TRUE(store.RemoveSegment(2).ok());
  EXPECT_EQ(store.segment_count(), 0);
  EXPECT_EQ(store.resident_bytes(), 0);
}

TEST(SpillStoreTest, RawBytesCounterTracksPreEncodingSize) {
  SpillStore store = MakeStore();
  ASSERT_TRUE(store.WriteSegment(1, 0, std::string(60, 'e'), 4,
                                 /*evicted=*/false, /*raw_bytes=*/100)
                  .ok());
  ASSERT_TRUE(store.WriteSegment(1, 0, std::string(40, 'e'), 4).ok());
  EXPECT_EQ(store.total_spilled_bytes(), 100);
  // Defaults to the blob size when the caller has no raw figure.
  EXPECT_EQ(store.total_raw_bytes(), 140);
  EXPECT_EQ(store.segments()[0].raw_bytes, 100);
  EXPECT_EQ(store.segments()[1].raw_bytes, 40);
}

// A backend whose writes always fail with a recognizable message.
class FailingBackend : public DiskBackend {
 public:
  explicit FailingBackend(std::string error) : error_(std::move(error)) {}
  Status Write(const std::string&, std::string_view) override {
    return Status::Internal(error_);
  }
  StatusOr<std::string> Read(const std::string& name) override {
    return Status::NotFound(name);
  }
  Status Remove(const std::string& name) override {
    return Status::NotFound(name);
  }

 private:
  std::string error_;
};

TEST(SpillStoreTest, FailedWriteReturnsBackendErrorAndRecordsNothing) {
  SpillStore store(/*engine=*/0, SpillStore::Config{},
                   std::make_unique<FailingBackend>("engine 0 disk died"));
  // The backend's own error comes back from the failing call itself.
  Status status = store.WriteSegment(1, 0, "abc", 1).status();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "engine 0 disk died");
  // No segment and no byte is accounted for the lost write.
  EXPECT_TRUE(store.segments().empty());
  EXPECT_EQ(store.segment_count(), 0);
  EXPECT_EQ(store.segments_written(), 0);
  EXPECT_EQ(store.total_spilled_bytes(), 0);
  EXPECT_EQ(store.resident_bytes(), 0);
}

}  // namespace
}  // namespace dcape
