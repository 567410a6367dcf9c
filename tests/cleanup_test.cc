#include "cleanup/cleanup.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cleanup/block_reader.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "runtime/exec_pool.h"
#include "state/partition_group.h"
#include "storage/disk_backend.h"
#include "tuple/serde.h"

namespace dcape {

// Set by the allocation test; read by the operator new at the end of
// this file. Not atomic: the test runs the cleanup serially.
bool g_count_allocations = false;
int64_t g_allocations = 0;

namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload = "pl";
  return t;
}

/// Serializes a group holding `tuples` for `partition`.
std::string GroupBlob(PartitionId partition, int num_streams,
                      const std::vector<Tuple>& tuples) {
  PartitionGroup group(partition, num_streams);
  for (const Tuple& t : tuples) group.InsertOnly(t);
  std::string blob;
  group.Serialize(&blob);
  return blob;
}

std::unique_ptr<SpillStore> MakeStore(EngineId engine) {
  return std::make_unique<SpillStore>(engine, SpillStore::Config{},
                                      std::make_unique<MemoryDiskBackend>());
}

CleanupConfig TestConfig() {
  CleanupConfig config;
  config.collect_results = true;
  return config;
}

TEST(CleanupTest, NothingSpilledMeansNothingMissing) {
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(0, 1, 5), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 1, 5), nullptr);
  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({nullptr}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 0);
  EXPECT_EQ(stats->total_ticks, 0);
}

TEST(CleanupTest, CrossGenerationComboIsProduced) {
  // Disk generation holds the stream-0 tuple; memory holds the stream-1
  // match. The runtime could never join them.
  auto store = MakeStore(0);
  ASSERT_TRUE(
      store->WriteSegment(0, 100, GroupBlob(0, 2, {MakeTuple(0, 1, 5)}), 1)
          .ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 9, 5), nullptr);

  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->result_count, 1);
  EXPECT_EQ(stats->results[0].member_seqs, (MemberSeqs{1, 9}));
  EXPECT_EQ(stats->results[0].join_key, 5);
  EXPECT_EQ(stats->partitions_cleaned, 1);
  EXPECT_GT(stats->total_ticks, 0);
}

TEST(CleanupTest, SameGenerationCombosAreNotReproduced) {
  // The spilled generation contains a full match (produced at runtime
  // before the spill); cleanup must not emit it again.
  auto store = MakeStore(0);
  ASSERT_TRUE(store
                  ->WriteSegment(0, 100,
                                 GroupBlob(0, 2,
                                           {MakeTuple(0, 1, 5),
                                            MakeTuple(1, 2, 5)}),
                                 2)
                  .ok());
  StateManager state(2);  // empty memory remainder
  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 0);
}

TEST(CleanupTest, ThreeGenerationsCountedExactlyOnce) {
  // Three generations of partition 0, each with one tuple per stream and
  // the same key: 3x3 = 9 total combos, 3 were produced at runtime
  // (same-generation), so cleanup owes exactly 6 — no duplicates.
  auto store = MakeStore(0);
  ASSERT_TRUE(store
                  ->WriteSegment(0, 100,
                                 GroupBlob(0, 2,
                                           {MakeTuple(0, 1, 5),
                                            MakeTuple(1, 1, 5)}),
                                 2)
                  .ok());
  ASSERT_TRUE(store
                  ->WriteSegment(0, 200,
                                 GroupBlob(0, 2,
                                           {MakeTuple(0, 2, 5),
                                            MakeTuple(1, 2, 5)}),
                                 2)
                  .ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(0, 3, 5), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 3, 5), nullptr);

  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 6);
  std::set<std::string> unique;
  for (const JoinResult& r : stats->results) unique.insert(r.EncodeKey());
  EXPECT_EQ(unique.size(), 6u);
  // Same-generation combos (1,1), (2,2), (3,3) must be absent.
  for (const JoinResult& r : stats->results) {
    EXPECT_NE(r.member_seqs[0], r.member_seqs[1]);
  }
}

TEST(CleanupTest, ThreeWayJoinSubsetExpansion) {
  // m=3: disk gen has one tuple per stream (key 7); memory gen has one
  // tuple per stream. Total combos 2^3 = 8; same-gen 2 → cleanup owes 6.
  auto store = MakeStore(0);
  ASSERT_TRUE(store
                  ->WriteSegment(0, 50,
                                 GroupBlob(0, 3,
                                           {MakeTuple(0, 1, 7),
                                            MakeTuple(1, 1, 7),
                                            MakeTuple(2, 1, 7)}),
                                 3)
                  .ok());
  StateManager state(3);
  state.ProcessTuple(0, MakeTuple(0, 2, 7), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 2, 7), nullptr);
  state.ProcessTuple(0, MakeTuple(2, 2, 7), nullptr);

  CleanupProcessor processor(TestConfig(), 3);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 6);
}

TEST(CleanupTest, GenerationsSpreadAcrossEngines) {
  // Partition spilled at engine 0, then relocated and its remainder lives
  // at engine 1 — cleanup must still join across.
  auto store0 = MakeStore(0);
  auto store1 = MakeStore(1);
  ASSERT_TRUE(
      store0->WriteSegment(3, 10, GroupBlob(3, 2, {MakeTuple(0, 1, 9)}), 1)
          .ok());
  StateManager state0(2);
  StateManager state1(2);
  state1.ProcessTuple(3, MakeTuple(1, 2, 9), nullptr);

  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats =
      processor.Run({store0.get(), store1.get()}, {&state0, &state1});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 1);
  ASSERT_EQ(stats->engine_ticks.size(), 2u);
}

TEST(CleanupTest, CountingWorksWithoutCollecting) {
  auto store = MakeStore(0);
  ASSERT_TRUE(
      store->WriteSegment(0, 10, GroupBlob(0, 2, {MakeTuple(0, 1, 5)}), 1)
          .ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 2, 5), nullptr);

  CleanupConfig config;
  config.collect_results = false;
  CleanupProcessor processor(config, 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 1);
  EXPECT_TRUE(stats->results.empty());
}

TEST(CleanupTest, ParallelCleanupTimeIsMaxOverEngines) {
  // Two independent partitions on two engines: total time is the max of
  // the per-engine times, not the sum (engines clean in parallel).
  auto store0 = MakeStore(0);
  auto store1 = MakeStore(1);
  const JoinKey key_p0 = 5;
  const JoinKey key_p1 = 5 + (1LL << 20);
  ASSERT_TRUE(
      store0->WriteSegment(0, 10, GroupBlob(0, 2, {MakeTuple(0, 1, key_p0)}), 1)
          .ok());
  ASSERT_TRUE(
      store1->WriteSegment(1, 10, GroupBlob(1, 2, {MakeTuple(0, 1, key_p1)}), 1)
          .ok());
  StateManager state0(2);
  StateManager state1(2);
  state0.ProcessTuple(1, MakeTuple(1, 2, key_p1), nullptr);
  state1.ProcessTuple(0, MakeTuple(1, 2, key_p0), nullptr);

  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats =
      processor.Run({store0.get(), store1.get()}, {&state0, &state1});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 2);
  Tick max_ticks = 0;
  for (Tick t : stats->engine_ticks) max_ticks = std::max(max_ticks, t);
  EXPECT_EQ(stats->total_ticks, max_ticks);
  EXPECT_LT(stats->total_ticks,
            stats->engine_ticks[0] + stats->engine_ticks[1]);
}

TEST(CleanupTest, ExecPoolRunIsBitIdenticalToSerial) {
  // The same multi-partition, multi-engine scenario run serially and on
  // ExecPools of several widths: every CleanupStats field and the exact
  // result ordering must match the serial run.
  auto build = [](std::unique_ptr<SpillStore>* store0,
                  std::unique_ptr<SpillStore>* store1,
                  StateManager* state0, StateManager* state1) {
    *store0 = MakeStore(0);
    *store1 = MakeStore(1);
    for (PartitionId p = 0; p < 6; ++p) {
      const JoinKey key = 100 + p;
      ASSERT_TRUE((*store0)
                      ->WriteSegment(p, 10 + p,
                                     GroupBlob(p, 2,
                                               {MakeTuple(0, p * 10 + 1, key),
                                                MakeTuple(1, p * 10 + 2, key)}),
                                     2)
                      .ok());
      ASSERT_TRUE((*store1)
                      ->WriteSegment(p, 50 + p,
                                     GroupBlob(p, 2,
                                               {MakeTuple(0, p * 10 + 3, key)}),
                                     1)
                      .ok());
      state0->ProcessTuple(p, MakeTuple(1, p * 10 + 4, key), nullptr);
      // Partition 5 gets no memory remainder on engine 1.
      if (p != 5) state1->ProcessTuple(p, MakeTuple(0, p * 10 + 5, key), nullptr);
    }
  };

  std::unique_ptr<SpillStore> store0, store1;
  StateManager state0(2), state1(2);
  build(&store0, &store1, &state0, &state1);
  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> serial =
      processor.Run({store0.get(), store1.get()}, {&state0, &state1});
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->result_count, 0);

  for (int workers : {1, 2, 4, 8}) {
    std::unique_ptr<SpillStore> pstore0, pstore1;
    StateManager pstate0(2), pstate1(2);
    build(&pstore0, &pstore1, &pstate0, &pstate1);
    ExecPool pool(workers);
    StatusOr<CleanupStats> parallel = processor.Run(
        {pstore0.get(), pstore1.get()}, {&pstate0, &pstate1}, &pool);
    ASSERT_TRUE(parallel.ok()) << "workers=" << workers;
    EXPECT_EQ(parallel->result_count, serial->result_count);
    EXPECT_EQ(parallel->partitions_cleaned, serial->partitions_cleaned);
    EXPECT_EQ(parallel->total_ticks, serial->total_ticks);
    EXPECT_EQ(parallel->engine_ticks, serial->engine_ticks);
    ASSERT_EQ(parallel->results.size(), serial->results.size());
    for (size_t i = 0; i < serial->results.size(); ++i) {
      EXPECT_EQ(parallel->results[i].EncodeKey(), serial->results[i].EncodeKey())
          << "workers=" << workers << " result " << i;
    }
  }
}

/// Forwards to an in-memory backend and records the calling thread and
/// the range of every ranged read.
class RecordingBackend : public DiskBackend {
 public:
  struct RangeRead {
    std::thread::id thread;
    std::string name;
    int64_t offset = 0;
    int64_t len = 0;
  };

  Status Write(const std::string& name, std::string_view data) override {
    return inner_.Write(name, data);
  }
  StatusOr<std::string> Read(const std::string& name) override {
    return inner_.Read(name);
  }
  Status Remove(const std::string& name) override {
    return inner_.Remove(name);
  }
  StatusOr<std::string> ReadRange(const std::string& name, int64_t offset,
                                  int64_t len) override {
    {
      MutexLock lock(mu_);
      reads_.push_back({std::this_thread::get_id(), name, offset, len});
    }
    return inner_.ReadRange(name, offset, len);
  }

  std::vector<RangeRead> reads() const {
    MutexLock lock(mu_);
    return reads_;
  }

 private:
  MemoryDiskBackend inner_;
  mutable Mutex mu_;
  std::vector<RangeRead> reads_ GUARDED_BY(mu_);
};

TEST(CleanupTest, SerialRunReadsEachBlockOnceOnTheCallingThread) {
  // Every section spans several blocks. A serial run reads each block
  // of every section the merge opens exactly once, on the thread that
  // called Run.
  constexpr int64_t kBlockBytes = 64;
  auto backend = std::make_unique<RecordingBackend>();
  RecordingBackend* recorder = backend.get();
  SpillStore store(0, SpillStore::Config{}, std::move(backend));
  StateManager state(2);
  int64_t seq = 1;
  for (PartitionId p = 0; p < 3; ++p) {
    for (Tick spill_time : {10, 20}) {
      std::vector<Tuple> tuples;
      for (JoinKey k = 0; k < 8; ++k) {
        for (StreamId s = 0; s < 2; ++s) {
          tuples.push_back(MakeTuple(s, seq++, p * 1000 + k));
          tuples.push_back(MakeTuple(s, seq++, p * 1000 + k));
        }
      }
      ASSERT_TRUE(store
                      .WriteSegment(p, spill_time + p,
                                    GroupBlob(p, 2, tuples),
                                    static_cast<int64_t>(tuples.size()))
                      .ok());
    }
    state.ProcessTuple(p, MakeTuple(0, seq++, p * 1000), nullptr);
  }
  // One generation owes nothing: the merge never opens its sections.
  const PartitionId lone = 7;
  ASSERT_TRUE(store
                  .WriteSegment(lone, 5,
                                GroupBlob(lone, 2,
                                          {MakeTuple(0, seq++, 7000),
                                           MakeTuple(1, seq++, 7000)}),
                                2)
                  .ok());

  int64_t expected_blocks = 0;
  for (const SpillSegmentMeta& meta : store.segments()) {
    if (meta.partition == lone) continue;
    const std::vector<int64_t>& offsets = meta.sections.offsets;
    ASSERT_EQ(offsets.size(), 3u);
    for (size_t s = 0; s + 1 < offsets.size(); ++s) {
      const int64_t bytes = offsets[s + 1] - offsets[s];
      ASSERT_GT(bytes, 2 * kBlockBytes);
      expected_blocks += (bytes + kBlockBytes - 1) / kBlockBytes;
    }
  }
  ASSERT_TRUE(recorder->reads().empty());

  CleanupConfig config = TestConfig();
  config.block_bytes = kBlockBytes;
  CleanupProcessor processor(config, 2);
  StatusOr<CleanupStats> stats = processor.Run({&store}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->result_count, 0);

  const std::vector<RecordingBackend::RangeRead> reads = recorder->reads();
  std::set<std::pair<std::string, int64_t>> blocks;
  for (const RecordingBackend::RangeRead& read : reads) {
    EXPECT_EQ(read.thread, std::this_thread::get_id())
        << read.name << " @" << read.offset;
    EXPECT_LE(read.len, kBlockBytes);
    blocks.insert({read.name, read.offset});
  }
  EXPECT_EQ(blocks.size(), reads.size()) << "a block was read twice";
  EXPECT_EQ(static_cast<int64_t>(reads.size()), stats->blocks_read);
  EXPECT_EQ(stats->blocks_read, expected_blocks);
}

TEST(CleanupTest, KeyMismatchAcrossGenerationsYieldsNothing) {
  auto store = MakeStore(0);
  ASSERT_TRUE(
      store->WriteSegment(0, 10, GroupBlob(0, 2, {MakeTuple(0, 1, 5)}), 1)
          .ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 2, 6), nullptr);  // different key
  CleanupProcessor processor(TestConfig(), 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->result_count, 0);
}

TEST(CleanupTest, MergeAllocatesPerCursorNotPerKey) {
  // One partition, 16 spilled generations of 100 keys over 3 streams.
  // Generation g holds keys [50g, 50g + 100), so every key but the 50 at
  // either end lives in two consecutive generations. The merge's
  // allocations are bounded per opened cursor and block read: a merge
  // that allocated per key, or per key and generation, would make tens
  // of thousands here.
  constexpr int kGenerations = 16;
  constexpr int kKeysPerGeneration = 100;
  constexpr int kStreams = 3;
  auto store = MakeStore(0);
  int64_t seq = 1;
  for (int g = 0; g < kGenerations; ++g) {
    std::vector<Tuple> tuples;
    for (JoinKey k = 50 * g; k < 50 * g + kKeysPerGeneration; ++k) {
      for (StreamId s = 0; s < kStreams; ++s) {
        tuples.push_back(MakeTuple(s, seq++, k));
      }
    }
    ASSERT_TRUE(store
                    ->WriteSegment(0, 10 * (g + 1),
                                   GroupBlob(0, kStreams, tuples),
                                   static_cast<int64_t>(tuples.size()))
                    .ok());
  }
  CleanupConfig config = TestConfig();
  config.collect_results = false;
  CleanupProcessor processor(config, kStreams);

  const int64_t before = g_allocations;
  g_count_allocations = true;
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {});
  g_count_allocations = false;
  const int64_t allocations = g_allocations - before;
  ASSERT_TRUE(stats.ok());

  // 750 keys in two generations with one member per (generation,
  // stream): each owes the 2^3 - 2 ways to take its streams from both.
  EXPECT_EQ(stats->result_count, 750 * 6);
  const int64_t cursors = kGenerations * kStreams;
  EXPECT_EQ(stats->blocks_read, cursors);  // every section fits a block
  EXPECT_LT(allocations, 16 * cursors)
      << "the merge allocated per key: " << allocations << " allocations";
}

/// A BlockedReader over all of `bytes`, read in `block_bytes` blocks.
std::unique_ptr<BlockedReader> ReaderOver(const std::string& bytes,
                                          int64_t block_bytes,
                                          MemoryTracker* tracker,
                                          BlockIoStats* io) {
  return std::make_unique<BlockedReader>(
      [bytes](int64_t offset, int64_t len) -> StatusOr<std::string> {
        return bytes.substr(static_cast<size_t>(offset),
                            static_cast<size_t>(len));
      },
      0, static_cast<int64_t>(bytes.size()), block_bytes, tracker, io);
}

TEST(SectionCursorTest, V2RunKeysMustAscend) {
  // A hand-encoded v2 section of two one-member runs, key 5, then key 3.
  std::string section;
  ByteWriter writer(&section);
  writer.PutVarint(2);  // runs
  for (JoinKey key : {5, 3}) {
    writer.PutZigzag(key);
    writer.PutVarint(1);  // members in the run
    writer.PutZigzag(7);  // seq delta
    writer.PutZigzag(0);  // timestamp delta
    writer.PutZigzag(0);  // value
    writer.PutZigzag(0);  // category
    writer.PutVarint(0);  // payload bytes
  }
  MemoryTracker tracker;
  BlockIoStats io;
  {
    V2SectionCursor cursor(ReaderOver(section, 4, &tracker, &io), &tracker);
    StatusOr<bool> first = cursor.Advance();
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_TRUE(*first);
    EXPECT_EQ(cursor.key(), 5);
    StatusOr<bool> second = cursor.Advance();
    ASSERT_FALSE(second.ok()) << "key 3 after key 5 was accepted";
    EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(tracker.current(), 0);
}

TEST(SectionCursorTest, V1RunKeysMustAscend) {
  // A hand-encoded v1 section: a run of key 5 (two tuples), then key 3.
  std::string section;
  ByteWriter writer(&section);
  writer.PutI64(3);  // tuples
  for (JoinKey key : {5, 5, 3}) {
    writer.PutI32(1);  // stream
    writer.PutI64(7);  // seq
    writer.PutI64(key);
    writer.PutI64(0);  // timestamp
    writer.PutI64(0);  // value
    writer.PutI64(0);  // category
    writer.PutString("pl");
  }
  MemoryTracker tracker;
  BlockIoStats io;
  {
    V1SectionCursor cursor(ReaderOver(section, 16, &tracker, &io), 1,
                           &tracker);
    StatusOr<bool> first = cursor.Advance();
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_TRUE(*first);
    EXPECT_EQ(cursor.key(), 5);
    EXPECT_EQ(cursor.members().size(), 2u);
    StatusOr<bool> second = cursor.Advance();
    ASSERT_FALSE(second.ok()) << "key 3 after key 5 was accepted";
    EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(tracker.current(), 0);
}

TEST(BlockedReaderTest, VarintsDecodeAtEveryBlockSize) {
  // Varints of every length, read with blocks small enough that most
  // straddle a block end and large enough that all are buffered.
  const std::vector<uint64_t> values = {
      0, 1, 127, 128, 300, 16383, 16384, uint64_t{1} << 35,
      uint64_t{1} << 56, uint64_t{1} << 63, ~uint64_t{0}, 5};
  std::string bytes;
  ByteWriter writer(&bytes);
  for (uint64_t v : values) writer.PutVarint(v);
  writer.PutZigzag(-3);
  for (int64_t block_bytes : {1, 3, 7, 10, 11, 64}) {
    MemoryTracker tracker;
    BlockIoStats io;
    std::unique_ptr<BlockedReader> reader =
        ReaderOver(bytes, block_bytes, &tracker, &io);
    for (uint64_t v : values) {
      StatusOr<uint64_t> got = reader->GetVarint();
      ASSERT_TRUE(got.ok()) << "block " << block_bytes << ": "
                            << got.status();
      EXPECT_EQ(*got, v) << "block " << block_bytes;
    }
    StatusOr<int64_t> zigzag = reader->GetZigzag();
    ASSERT_TRUE(zigzag.ok()) << zigzag.status();
    EXPECT_EQ(*zigzag, -3);
    EXPECT_FALSE(reader->GetVarint().ok()) << "read past the end";
  }
}

TEST(BlockedReaderTest, VarintOverflowFailsBufferedOrNot) {
  // Ten bytes whose last sets bit 64: the same error whether the decode
  // reads the window directly (64-byte blocks, padding after it) or one
  // byte at a time (1-byte blocks).
  std::string bytes(9, static_cast<char>(0xFF));
  bytes.push_back(0x02);
  bytes.append(16, '\0');
  for (int64_t block_bytes : {1, 64}) {
    MemoryTracker tracker;
    BlockIoStats io;
    std::unique_ptr<BlockedReader> reader =
        ReaderOver(bytes, block_bytes, &tracker, &io);
    StatusOr<uint64_t> got = reader->GetVarint();
    ASSERT_FALSE(got.ok()) << "block " << block_bytes;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(got.status().message(), "varint overflows 64 bits");
  }
}

}  // namespace
}  // namespace dcape

// Counts heap allocations while g_count_allocations is set (the
// allocation test above); otherwise the default behaviour. GCC reads
// free() on memory from operator new as a mismatch, but these
// replacements pair malloc with free on purpose.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t size) {
  if (dcape::g_count_allocations) ++dcape::g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
