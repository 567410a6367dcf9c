// Differential property test for PartitionGroup's storage layout (key
// index, row chains, payload arena): random operation sequences run
// against the group and against a plain ordered-map model, and after
// every call the two must agree on the produced results, on both segment
// encodings byte for byte, and on the counters — and the group's dead
// arena bytes must stay within its live ones. Every twentieth seed also
// grows the group past one arena block of rows (bulk inserts over a wide
// key domain) and of payload, with payloads of every size up to just
// over a block, so payloads open new blocks, skip block tails and get
// runs of their own.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "state/block_arena.h"
#include "state/partition_group.h"
#include "tuple/projection.h"
#include "tuple/serde.h"
#include "tuple/tuple.h"

namespace dcape {
namespace {

constexpr PartitionId kPartition = 7;
constexpr int64_t kRowsPerBlock = 4096;
constexpr int64_t kPayloadBlock =
    static_cast<int64_t>(PayloadArena::kBlockBytes);

/// What the large seeds reached, over the whole test.
struct Reach {
  int64_t most_tuples = 0;
  int64_t most_payload_bytes = 0;
  int64_t nearly_a_block = 0;
  int64_t longer_than_a_block = 0;
};
Reach reach;

/// The reference: every stream's tuples per key in arrival order, the
/// keys' access clocks, and the group counters.
struct Model {
  explicit Model(int m) : num_streams(m) {}

  int num_streams;
  std::map<JoinKey, std::array<std::vector<Tuple>, kMaxStreams>> keys;
  std::map<JoinKey, int64_t> touch;
  int64_t outputs = 0;
  int64_t clock = 0;

  int64_t Bytes() const {
    int64_t total = 0;
    for (const auto& [key, lists] : keys) {
      for (int s = 0; s < num_streams; ++s) {
        for (const Tuple& t : lists[static_cast<size_t>(s)]) {
          total += t.ByteSize();
        }
      }
    }
    return total;
  }
  int64_t Count() const {
    int64_t total = 0;
    for (const auto& [key, lists] : keys) {
      for (int s = 0; s < num_streams; ++s) {
        total += static_cast<int64_t>(lists[static_cast<size_t>(s)].size());
      }
    }
    return total;
  }
  /// The key's lists and clock, created empty (clock 0) when absent.
  std::array<std::vector<Tuple>, kMaxStreams>& Key(JoinKey key) {
    touch.emplace(key, 0);
    return keys[key];
  }
  void Drop(JoinKey key) {
    keys.erase(key);
    touch.erase(key);
  }
  /// Moves every tuple of `key` behind `dst`'s, merging clocks by max.
  int64_t MoveKeyTo(JoinKey key, Model* dst) {
    int64_t moved = 0;
    auto& to = dst->Key(key);
    for (int s = 0; s < num_streams; ++s) {
      for (Tuple& t : keys[key][static_cast<size_t>(s)]) {
        moved += t.ByteSize();
        to[static_cast<size_t>(s)].push_back(std::move(t));
      }
    }
    dst->touch[key] = std::max(dst->touch[key], touch[key]);
    dst->clock = std::max(dst->clock, touch[key]);
    Drop(key);
    return moved;
  }
};

int64_t ModelProbe(Model* model, const Tuple& tuple,
                   const ResultProjection* projection, Tick window,
                   std::vector<JoinResult>* results) {
  const int m = model->num_streams;
  const int own = tuple.stream_id;
  auto& lists = model->Key(tuple.join_key);
  bool all_matched = true;
  for (int s = 0; s < m; ++s) {
    if (s != own) all_matched &= !lists[static_cast<size_t>(s)].empty();
  }
  lists[static_cast<size_t>(own)].push_back(tuple);
  model->touch[tuple.join_key] = ++model->clock;
  if (!all_matched) return 0;
  // Cross product of the other streams' lists, the last stream varying
  // fastest, the arrival pinned as its own stream's member.
  std::array<size_t, kMaxStreams> cursor{};
  cursor[static_cast<size_t>(own)] = lists[static_cast<size_t>(own)].size() - 1;
  int64_t produced = 0;
  while (true) {
    JoinResult result;
    result.partition = kPartition;
    result.join_key = tuple.join_key;
    result.member_seqs.assign(static_cast<size_t>(m), 0);
    Tick min_ts = tuple.timestamp;
    Tick max_ts = tuple.timestamp;
    int64_t agg = 0;
    for (int s = 0; s < m; ++s) {
      const size_t i = static_cast<size_t>(s);
      const Tuple& member = lists[i][cursor[i]];
      result.member_seqs[i] = member.seq;
      min_ts = std::min(min_ts, member.timestamp);
      max_ts = std::max(max_ts, member.timestamp);
      if (projection != nullptr) {
        if (s == projection->group_stream) result.group_key = member.category;
        agg = FoldAggregate(projection->op, agg, member.value, s == 0);
      }
    }
    if (window <= 0 || max_ts - min_ts <= window) {
      if (projection != nullptr) result.agg_value = agg;
      result.latest_member_ts = max_ts;
      results->push_back(result);
      ++produced;
    }
    int s = m - 1;
    for (; s >= 0; --s) {
      if (s == own) continue;
      const size_t i = static_cast<size_t>(s);
      if (++cursor[i] < lists[i].size()) break;
      cursor[i] = 0;
    }
    if (s < 0) break;
  }
  model->outputs += produced;
  return produced;
}

/// Independent encoders of the two segment formats, from the model.
std::string ModelBlob(const Model& model, SegmentFormat format) {
  std::string out;
  ByteWriter writer(&out);
  if (format == SegmentFormat::kV1) {
    writer.PutI32(kPartition);
    writer.PutI32(model.num_streams);
    writer.PutI64(model.outputs);
    for (int s = 0; s < model.num_streams; ++s) {
      int64_t count = 0;
      for (const auto& [key, lists] : model.keys) {
        count += static_cast<int64_t>(lists[static_cast<size_t>(s)].size());
      }
      writer.PutI64(count);
      for (const auto& [key, lists] : model.keys) {
        for (const Tuple& t : lists[static_cast<size_t>(s)]) {
          EncodeTuple(t, &out);
        }
      }
    }
    return out;
  }
  const char magic[4] = {0x44, 0x43, 0x50, static_cast<char>(0xB2)};
  out.append(magic, 4);
  writer.PutU8(2);
  writer.PutVarint(kPartition);
  writer.PutVarint(static_cast<uint64_t>(model.num_streams));
  writer.PutZigzag(model.outputs);
  for (int s = 0; s < model.num_streams; ++s) {
    uint64_t runs = 0;
    for (const auto& [key, lists] : model.keys) {
      runs += lists[static_cast<size_t>(s)].empty() ? 0 : 1;
    }
    writer.PutVarint(runs);
    for (const auto& [key, lists] : model.keys) {
      const std::vector<Tuple>& run = lists[static_cast<size_t>(s)];
      if (run.empty()) continue;
      writer.PutZigzag(key);
      writer.PutVarint(run.size());
      int64_t prev_seq = 0;
      Tick prev_ts = 0;
      for (const Tuple& t : run) {
        writer.PutZigzag(t.seq - prev_seq);
        writer.PutZigzag(t.timestamp - prev_ts);
        writer.PutZigzag(t.value);
        writer.PutZigzag(t.category);
        writer.PutVString(t.payload);
        prev_seq = t.seq;
        prev_ts = t.timestamp;
      }
    }
  }
  return out;
}

std::string Blob(const PartitionGroup& group, SegmentFormat format) {
  std::string out;
  group.Serialize(&out, format);
  return out;
}

void ExpectAgrees(const PartitionGroup& group, const Model& model,
                  const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(group.bytes(), model.Bytes());
  EXPECT_EQ(group.tuple_count(), model.Count());
  EXPECT_EQ(group.DistinctKeyCount(), static_cast<int64_t>(model.keys.size()));
  EXPECT_EQ(group.outputs(), model.outputs);
  EXPECT_EQ(Blob(group, SegmentFormat::kV1),
            ModelBlob(model, SegmentFormat::kV1));
  EXPECT_EQ(Blob(group, SegmentFormat::kV2),
            ModelBlob(model, SegmentFormat::kV2));
  EXPECT_LE(group.dead_bytes(), group.bytes()) << "dead arena bytes";
  EXPECT_GE(group.resident_bytes(), group.bytes() + group.dead_bytes());
}

void ExpectSameResults(const std::vector<JoinResult>& got,
                       const std::vector<JoinResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "result " << i;
    EXPECT_EQ(got[i].group_key, want[i].group_key) << "result " << i;
    EXPECT_EQ(got[i].agg_value, want[i].agg_value) << "result " << i;
    EXPECT_EQ(got[i].latest_member_ts, want[i].latest_member_ts)
        << "result " << i;
  }
}

/// One seed: a random m, key domain and operation sequence. `side` is a
/// second group (with its model) that cold splits and sub-partitions
/// land in and that merges back into the main group.
void RunSeed(uint32_t seed) {
  std::mt19937_64 rng(seed);
  auto uniform = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  const bool large = seed % 20 == 7;
  const int m = static_cast<int>(uniform(2, 4));
  const JoinKey key_base = uniform(0, 2) == 0 ? -5 : uniform(0, 1) << 40;
  // A large group spreads over thousands of keys, so its probes stay
  // cheap.
  const int64_t key_domain = large ? uniform(2000, 6000) : uniform(1, 12);
  PartitionGroup group(kPartition, m);
  PartitionGroup side(kPartition, m);
  Model model(m);
  Model side_model(m);
  std::vector<int64_t> next_seq(static_cast<size_t>(m), 0);
  Tick now = 100;

  // `bulk` tuples of a large seed carry up to 160 bytes; its single
  // tuples sometimes carry a payload of about a block, on either side
  // of the block size.
  auto make_tuple = [&](bool bulk = false) {
    Tuple t;
    t.stream_id = static_cast<StreamId>(uniform(0, m - 1));
    t.seq = ++next_seq[static_cast<size_t>(t.stream_id)];
    t.join_key = key_base + uniform(0, key_domain - 1);
    now += uniform(0, 3);
    t.timestamp = now - uniform(0, 5);
    t.value = uniform(-1000, 1000);
    t.category = uniform(0, 5);
    int64_t size = uniform(0, 24);
    if (large) {
      size = !bulk && uniform(0, 99) < 3
                 ? uniform(kPayloadBlock - 2000, kPayloadBlock + 2000)
                 : uniform(0, 160);
      reach.nearly_a_block +=
          size > kPayloadBlock / 2 && size <= kPayloadBlock ? 1 : 0;
      reach.longer_than_a_block += size > kPayloadBlock ? 1 : 0;
    }
    t.payload.assign(static_cast<size_t>(size),
                     static_cast<char>('a' + uniform(0, 25)));
    return t;
  };

  for (int op = 0; op < 150; ++op) {
    const int64_t kind = uniform(0, 99);
    std::string what = "seed " + std::to_string(seed) + " op " +
                       std::to_string(op) + " kind ";
    if (kind < 50) {
      what += "ProbeAndInsert";
      const Tuple t = make_tuple();
      ResultProjection projection{
          static_cast<StreamId>(uniform(0, m - 1)),
          static_cast<AggregateOp>(uniform(0, 3))};
      const ResultProjection* proj =
          uniform(0, 1) == 0 ? nullptr : &projection;
      const Tick window = uniform(0, 1) == 0 ? 0 : uniform(1, 20);
      std::vector<JoinResult> got;
      std::vector<JoinResult> want;
      EXPECT_EQ(group.ProbeAndInsert(t, &got, proj, window),
                ModelProbe(&model, t, proj, window, &want))
          << what;
      ExpectSameResults(got, want);
    } else if (large && kind < 53) {
      what += "BulkInsertOnly";
      for (int64_t n = uniform(1000, 3000); n > 0; --n) {
        const Tuple t = make_tuple(/*bulk=*/true);
        group.InsertOnly(t);
        model.Key(t.join_key)[static_cast<size_t>(t.stream_id)].push_back(t);
      }
    } else if (kind < 60) {
      what += "InsertOnly";
      const Tuple t = make_tuple();
      group.InsertOnly(t);
      model.Key(t.join_key)[static_cast<size_t>(t.stream_id)].push_back(t);
    } else if (kind < 70) {
      what += "EvictBefore";
      const Tick cutoff = now - uniform(0, 30);
      PartitionGroup evicted(kPartition, m);
      Model evicted_model(m);
      int64_t want = 0;
      for (auto it = model.keys.begin(); it != model.keys.end();) {
        bool empty = true;
        for (int s = 0; s < m; ++s) {
          std::vector<Tuple>& list = it->second[static_cast<size_t>(s)];
          std::vector<Tuple> kept;
          for (Tuple& t : list) {
            if (t.timestamp < cutoff) {
              evicted_model.Key(it->first)[static_cast<size_t>(s)].push_back(
                  std::move(t));
              ++want;
            } else {
              kept.push_back(std::move(t));
            }
          }
          list = std::move(kept);
          empty = empty && list.empty();
        }
        if (empty) {
          model.touch.erase(it->first);
          it = model.keys.erase(it);
        } else {
          ++it;
        }
      }
      EXPECT_EQ(group.EvictBefore(cutoff, &evicted), want) << what;
      ExpectAgrees(evicted, evicted_model, what + " (evicted)");
      if (uniform(0, 1) == 0) {
        // A failed eviction write reinstalls the expired, older tuples:
        // they append behind the newer ones.
        what += "+reinstall";
        group.MergeFrom(std::move(evicted));
        for (auto& [key, lists] : evicted_model.keys) {
          auto& into = model.Key(key);
          for (int s = 0; s < m; ++s) {
            for (Tuple& t : lists[static_cast<size_t>(s)]) {
              into[static_cast<size_t>(s)].push_back(std::move(t));
            }
          }
        }
      }
    } else if (kind < 78) {
      what += "SplitColdest";
      const int64_t target = uniform(0, model.Bytes());
      int64_t want = 0;
      if (target > 0 && model.keys.size() >= 2) {
        std::vector<std::pair<int64_t, JoinKey>> order;
        for (const auto& [key, touch] : model.touch) {
          order.emplace_back(touch, key);
        }
        std::sort(order.begin(), order.end());
        for (size_t i = 0; i + 1 < order.size() && want < target; ++i) {
          want += model.MoveKeyTo(order[i].second, &side_model);
        }
      }
      EXPECT_EQ(group.SplitColdest(target, &side), want) << what;
    } else if (kind < 84) {
      what += "SplitBySecondaryHashBit";
      const int bit = static_cast<int>(uniform(0, 3));
      Model high_model(m);
      std::vector<JoinKey> moving;
      for (const auto& [key, lists] : model.keys) {
        if ((SecondaryKeyHash(key) >> bit) & 1ULL) moving.push_back(key);
      }
      for (JoinKey key : moving) model.MoveKeyTo(key, &high_model);
      PartitionGroup high = group.SplitBySecondaryHashBit(bit);
      ExpectAgrees(high, high_model, what + " (high)");
      side.MergeFrom(std::move(high));
      for (JoinKey key : moving) high_model.MoveKeyTo(key, &side_model);
    } else if (kind < 90) {
      what += "MergeFrom";
      group.MergeFrom(std::move(side));
      side = PartitionGroup(kPartition, m);
      for (auto& [key, lists] : side_model.keys) {
        auto& into = model.Key(key);
        for (int s = 0; s < m; ++s) {
          for (Tuple& t : lists[static_cast<size_t>(s)]) {
            into[static_cast<size_t>(s)].push_back(std::move(t));
          }
        }
        model.touch[key] = std::max(model.touch[key], side_model.touch[key]);
      }
      model.outputs += side_model.outputs;
      model.clock = std::max(model.clock, side_model.clock);
      side_model = Model(m);
    } else {
      const SegmentFormat format =
          uniform(0, 1) == 0 ? SegmentFormat::kV1 : SegmentFormat::kV2;
      what += format == SegmentFormat::kV1 ? "RoundTripV1" : "RoundTripV2";
      StatusOr<PartitionGroup> restored =
          PartitionGroup::Deserialize(Blob(group, format));
      ASSERT_TRUE(restored.ok()) << what;
      group = std::move(restored).value();
      // A restored generation starts cold.
      for (auto& [key, touch] : model.touch) touch = 0;
      model.clock = 0;
    }
    ExpectAgrees(group, model, what);
    ExpectAgrees(side, side_model, what + " (side)");
    if (::testing::Test::HasFailure()) return;
    reach.most_tuples = std::max(reach.most_tuples, group.tuple_count());
    reach.most_payload_bytes =
        std::max(reach.most_payload_bytes,
                 group.bytes() - Tuple::kHeaderBytes * group.tuple_count());
  }
}

TEST(PartitionGroupPropertyTest, MatchesOrderedMapModel) {
  for (uint32_t seed = 0; seed < 200; ++seed) {
    RunSeed(seed);
    if (::testing::Test::HasFailure()) break;
  }
  // The large seeds reached past a block of rows and of payload, and
  // stored payloads that fit no partly used block and ones longer than
  // a block.
  EXPECT_GT(reach.most_tuples, 2 * kRowsPerBlock);
  EXPECT_GT(reach.most_payload_bytes, 2 * kPayloadBlock);
  EXPECT_GT(reach.nearly_a_block, 0);
  EXPECT_GT(reach.longer_than_a_block, 0);
}

}  // namespace
}  // namespace dcape
