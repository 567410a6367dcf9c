#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "state/partition_group.h"
#include "storage/segment_index.h"
#include "tuple/serde.h"
#include "tuple/tuple.h"

namespace dcape {
namespace {

// Canonical order-independent view of a group's contents. The hash
// tables iterate in different orders after a round trip, so contents
// are compared as a sorted tuple list.
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
    if (a.seq != b.seq) return a.seq < b.seq;
    return a.payload < b.payload;
  });
  return all;
}

void ExpectSameContents(const PartitionGroup& a, const PartitionGroup& b) {
  EXPECT_EQ(a.partition(), b.partition());
  EXPECT_EQ(a.num_streams(), b.num_streams());
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(a.tuple_count(), b.tuple_count());
  EXPECT_EQ(a.outputs(), b.outputs());
  const std::vector<Tuple> ta = CanonicalTuples(a);
  const std::vector<Tuple> tb = CanonicalTuples(b);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
}

// A randomized group: skewed keys, arbitrary-sign values, random
// payload lengths, monotone-ish timestamps with jitter.
PartitionGroup RandomGroup(std::mt19937_64* rng, PartitionId partition,
                           int num_streams, int num_tuples,
                           int max_payload) {
  PartitionGroup group(partition, num_streams);
  std::uniform_int_distribution<int> stream_dist(0, num_streams - 1);
  std::geometric_distribution<JoinKey> key_dist(0.1);
  std::uniform_int_distribution<int64_t> value_dist(-1000000, 1000000);
  std::uniform_int_distribution<int> len_dist(0, max_payload);
  std::vector<JoinResult> results;
  Tick ts = 1000;
  for (int i = 0; i < num_tuples; ++i) {
    Tuple t;
    t.stream_id = stream_dist(*rng);
    t.seq = i;
    t.join_key = key_dist(*rng);
    ts += static_cast<Tick>(len_dist(*rng));
    t.timestamp = ts;
    t.value = value_dist(*rng);
    t.category = value_dist(*rng) % 7;
    t.payload.assign(static_cast<size_t>(len_dist(*rng)),
                     static_cast<char>('a' + i % 26));
    // Probe-and-insert so the outputs counter is exercised too.
    group.ProbeAndInsert(t, &results);
    results.clear();
  }
  return group;
}

TEST(SegmentFormatTest, V2RoundTripRandomGroups) {
  std::mt19937_64 rng(20260807);
  for (int num_streams : {2, 3, 5}) {
    for (int max_payload : {0, 8, 64}) {
      PartitionGroup group =
          RandomGroup(&rng, /*partition=*/17, num_streams,
                      /*num_tuples=*/300, max_payload);
      std::string blob;
      group.Serialize(&blob, SegmentFormat::kV2);
      StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(blob);
      ASSERT_TRUE(restored.ok()) << restored.status();
      ExpectSameContents(group, *restored);
    }
  }
}

TEST(SegmentFormatTest, V1BlobStillDeserializes) {
  std::mt19937_64 rng(7);
  PartitionGroup group = RandomGroup(&rng, 4, 3, 200, 32);
  std::string v1;
  group.Serialize(&v1, SegmentFormat::kV1);
  StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(v1);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectSameContents(group, *restored);
}

TEST(SegmentFormatTest, FormatsDecodeToIdenticalState) {
  std::mt19937_64 rng(99);
  PartitionGroup group = RandomGroup(&rng, 9, 4, 250, 16);
  std::string v1, v2;
  group.Serialize(&v1, SegmentFormat::kV1);
  group.Serialize(&v2, SegmentFormat::kV2);
  StatusOr<PartitionGroup> from_v1 = PartitionGroup::Deserialize(v1);
  StatusOr<PartitionGroup> from_v2 = PartitionGroup::Deserialize(v2);
  ASSERT_TRUE(from_v1.ok());
  ASSERT_TRUE(from_v2.ok());
  ExpectSameContents(*from_v1, *from_v2);
}

TEST(SegmentFormatTest, V2IsAtLeast25PercentSmallerOnStandardWorkload) {
  // The dcape_run default workload shape: 64-byte payloads, skewed keys.
  std::mt19937_64 rng(42);
  PartitionGroup group = RandomGroup(&rng, 0, 3, 2000, 64);
  std::string v1, v2;
  group.Serialize(&v1, SegmentFormat::kV1);
  group.Serialize(&v2, SegmentFormat::kV2);
  EXPECT_EQ(static_cast<int64_t>(v1.size()), group.SerializedByteSize());
  EXPECT_LE(static_cast<double>(v2.size()),
            0.75 * static_cast<double>(v1.size()))
      << "v1=" << v1.size() << " v2=" << v2.size();
}

TEST(SegmentFormatTest, EvictedGenerationRoundTrips) {
  // Eviction generations are serialized from EvictBefore output —
  // partial groups holding only window-expired tuples.
  std::mt19937_64 rng(5);
  PartitionGroup group = RandomGroup(&rng, 3, 3, 400, 24);
  PartitionGroup expired(3, 3);
  const int64_t moved = group.EvictBefore(/*cutoff=*/3000, &expired);
  ASSERT_GT(moved, 0);
  for (const PartitionGroup* g : {&group, &expired}) {
    std::string blob;
    g->Serialize(&blob, SegmentFormat::kV2);
    StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(blob);
    ASSERT_TRUE(restored.ok()) << restored.status();
    ExpectSameContents(*g, *restored);
  }
}

TEST(SegmentFormatTest, EveryTruncationOfV2IsRejected) {
  std::mt19937_64 rng(13);
  PartitionGroup group = RandomGroup(&rng, 2, 2, 40, 8);
  std::string blob;
  group.Serialize(&blob, SegmentFormat::kV2);
  for (size_t len = 0; len < blob.size(); ++len) {
    StatusOr<PartitionGroup> restored =
        PartitionGroup::Deserialize(std::string_view(blob).substr(0, len));
    EXPECT_FALSE(restored.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(SegmentFormatTest, TrailingBytesAfterV2Rejected) {
  std::mt19937_64 rng(13);
  PartitionGroup group = RandomGroup(&rng, 2, 2, 40, 8);
  std::string blob;
  group.Serialize(&blob, SegmentFormat::kV2);
  blob += "x";
  StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(blob);
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SegmentFormatTest, UnknownVersionByteRejected) {
  std::mt19937_64 rng(13);
  PartitionGroup group = RandomGroup(&rng, 2, 2, 10, 8);
  std::string blob;
  group.Serialize(&blob, SegmentFormat::kV2);
  blob[4] = 99;  // version byte follows the 4-byte magic
  StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(blob);
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(SegmentFormatTest, CorruptCountsDoNotCrash) {
  // Overwrite bytes after the header with 0xFF runs (huge varints) —
  // must fail with a Status, not allocate wildly or crash.
  std::mt19937_64 rng(21);
  PartitionGroup group = RandomGroup(&rng, 2, 2, 50, 8);
  std::string blob;
  group.Serialize(&blob, SegmentFormat::kV2);
  for (size_t pos = 5; pos < std::min<size_t>(blob.size(), 25); ++pos) {
    std::string corrupt = blob;
    for (size_t i = pos; i < std::min(corrupt.size(), pos + 9); ++i) {
      corrupt[i] = static_cast<char>(0xFF);
    }
    StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(corrupt);
    // Either rejected or (rarely) decoded to something well-formed; the
    // point is no crash/OOM. Most positions must reject.
    (void)restored;
  }
  SUCCEED();
}

// The header of a group blob declaring `num_streams` streams, followed by
// that many empty sections.
std::string EmptyGroupBlob(SegmentFormat format, int num_streams) {
  std::string blob;
  ByteWriter writer(&blob);
  if (format == SegmentFormat::kV1) {
    writer.PutI32(/*partition=*/1);
    writer.PutI32(num_streams);
    writer.PutI64(/*outputs=*/0);
    for (int s = 0; s < num_streams; ++s) writer.PutI64(0);
    return blob;
  }
  blob.append("DCP\xB2", 4);
  writer.PutU8(static_cast<uint8_t>(SegmentFormat::kV2));
  writer.PutVarint(/*partition=*/1);
  writer.PutVarint(static_cast<uint64_t>(num_streams));
  writer.PutZigzag(/*outputs=*/0);
  for (int s = 0; s < num_streams; ++s) writer.PutVarint(0);
  return blob;
}

TEST(SegmentFormatTest, StreamCountAboveTheCapRejected) {
  // Results store member seqs inline for at most kMaxStreams streams, so
  // both decoders must refuse any blob declaring more.
  for (SegmentFormat format : {SegmentFormat::kV1, SegmentFormat::kV2}) {
    const std::string at_cap = EmptyGroupBlob(format, kMaxStreams);
    StatusOr<PartitionGroup> ok = PartitionGroup::Deserialize(at_cap);
    ASSERT_TRUE(ok.ok()) << ok.status();
    EXPECT_EQ(ok->num_streams(), kMaxStreams);
    EXPECT_TRUE(ScanSegmentSections(at_cap).ok());

    for (int num_streams : {kMaxStreams + 1, 1024}) {
      const std::string blob = EmptyGroupBlob(format, num_streams);
      EXPECT_EQ(PartitionGroup::Deserialize(blob).status().code(),
                StatusCode::kInvalidArgument)
          << num_streams << " streams";
      EXPECT_EQ(ScanSegmentSections(blob).status().code(),
                StatusCode::kInvalidArgument)
          << num_streams << " streams";
    }
  }
}

// One arrival sequence over three streams. Keys 0..19 receive every
// stream, so they join; keys 20..29 receive only streams 0 and 1, so
// they never produce a result and can be split in time across groups
// without moving any output between them.
std::vector<Tuple> CanonicalArrivals() {
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<JoinKey> key_dist(0, 29);
  std::uniform_int_distribution<int> len_dist(0, 12);
  std::vector<Tuple> arrivals;
  for (int i = 0; i < 600; ++i) {
    Tuple t;
    t.join_key = key_dist(rng);
    t.stream_id = static_cast<StreamId>(t.join_key < 20 ? i % 3 : i % 2);
    t.seq = i;
    t.timestamp = 1000 + 3 * i;
    t.value = static_cast<int64_t>(rng() % 2001) - 1000;
    t.category = static_cast<int64_t>(rng() % 5);
    t.payload.assign(static_cast<size_t>(len_dist(rng)),
                     static_cast<char>('a' + i % 26));
    arrivals.push_back(t);
  }
  return arrivals;
}

void ExpectSameBlobs(const PartitionGroup& a, const PartitionGroup& b,
                     const char* path) {
  for (SegmentFormat format : {SegmentFormat::kV1, SegmentFormat::kV2}) {
    std::string blob_a;
    std::string blob_b;
    a.Serialize(&blob_a, format);
    b.Serialize(&blob_b, format);
    EXPECT_EQ(blob_a, blob_b)
        << path << ", format v" << static_cast<int>(format);
  }
}

TEST(SegmentFormatTest, BlobIsAPureFunctionOfTheState) {
  // Groups reaching the same logical state by different paths must
  // encode to the same bytes in both formats.
  const std::vector<Tuple> arrivals = CanonicalArrivals();
  auto probe_all = [&](PartitionGroup* group, auto&& keep) {
    for (const Tuple& t : arrivals) {
      if (keep(t)) group->ProbeAndInsert(t, nullptr);
    }
  };
  const auto all = [](const Tuple&) { return true; };

  // Interleaved ProbeAndInsert of the whole sequence.
  PartitionGroup reference(7, 3);
  probe_all(&reference, all);
  ASSERT_GT(reference.outputs(), 0);

  // Deserialize + MergeFrom: the joining keys split by key, the
  // non-joining ones by time, so both groups share keys 20..29.
  const auto early = [](const Tuple& t) {
    return t.join_key < 20 ? t.join_key < 10 : t.seq < 300;
  };
  PartitionGroup early_group(7, 3);
  probe_all(&early_group, early);
  PartitionGroup late_group(7, 3);
  probe_all(&late_group, [&](const Tuple& t) { return !early(t); });
  std::string early_blob;
  early_group.Serialize(&early_blob);
  StatusOr<PartitionGroup> merged = PartitionGroup::Deserialize(early_blob);
  ASSERT_TRUE(merged.ok()) << merged.status();
  merged->MergeFrom(std::move(late_group));
  ExpectSameBlobs(reference, *merged, "Deserialize + MergeFrom");

  // SplitColdest, then MergeFrom back.
  PartitionGroup split(7, 3);
  probe_all(&split, all);
  PartitionGroup cold(7, 3);
  ASSERT_GT(split.SplitColdest(split.bytes() / 2, &cold), 0);
  split.MergeFrom(std::move(cold));
  ExpectSameBlobs(reference, split, "SplitColdest + MergeFrom");

  // Grow, then EvictBefore: 5,000 expired keys and expired tuples on the
  // non-joining keys, none of which joins anything.
  PartitionGroup grown(7, 3);
  for (int i = 0; i < 5000; ++i) {
    Tuple t;
    t.stream_id = i % 2;
    t.seq = 100000 + i;
    t.join_key = i % 100 == 0 ? 20 + (i / 100) % 10 : 100000 + i;
    t.timestamp = i % 1000;
    grown.ProbeAndInsert(t, nullptr);
  }
  probe_all(&grown, all);
  PartitionGroup expired(7, 3);
  ASSERT_EQ(grown.EvictBefore(/*cutoff=*/1000, &expired), 5000);
  ExpectSameBlobs(reference, grown, "grow + EvictBefore");
}

TEST(SegmentFormatTest, TupleBatchV2RoundTripAndSniffing) {
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int64_t> value_dist(-1000, 1000);
  TupleBatch batch;
  batch.stream_id = 2;
  Tick ts = 500;
  for (int i = 0; i < 100; ++i) {
    Tuple t;
    t.stream_id = 2;
    t.seq = 1000 + i;
    t.join_key = value_dist(rng);
    ts += static_cast<Tick>(i % 5);
    t.timestamp = ts;
    t.value = value_dist(rng);
    t.category = value_dist(rng) % 3;
    t.payload = std::string(static_cast<size_t>(i % 17), 'p');
    batch.tuples.push_back(t);
  }
  std::string v1, v2;
  EncodeTupleBatch(batch, &v1, SegmentFormat::kV1);
  EncodeTupleBatch(batch, &v2, SegmentFormat::kV2);
  EXPECT_LT(v2.size(), v1.size());
  for (const std::string* blob : {&v1, &v2}) {
    StatusOr<TupleBatch> decoded = DecodeTupleBatch(*blob);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->stream_id, batch.stream_id);
    ASSERT_EQ(decoded->tuples.size(), batch.tuples.size());
    for (size_t i = 0; i < batch.tuples.size(); ++i) {
      EXPECT_EQ(decoded->tuples[i], batch.tuples[i]);
    }
  }
}

TEST(SegmentFormatTest, TruncatedTupleBatchV2Rejected) {
  TupleBatch batch;
  batch.stream_id = 0;
  for (int i = 0; i < 5; ++i) {
    Tuple t;
    t.stream_id = 0;
    t.seq = i;
    t.join_key = i;
    t.timestamp = i;
    t.payload = "abc";
    batch.tuples.push_back(t);
  }
  std::string blob;
  EncodeTupleBatch(batch, &blob, SegmentFormat::kV2);
  for (size_t len = 1; len < blob.size(); ++len) {
    EXPECT_FALSE(DecodeTupleBatch(std::string_view(blob).substr(0, len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

}  // namespace
}  // namespace dcape
