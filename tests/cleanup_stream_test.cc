#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cleanup/cleanup.h"
#include "common/check.h"
#include "common/rng.h"
#include "runtime/exec_pool.h"
#include "state/partition_group.h"
#include "storage/disk_backend.h"
#include "tuple/projection.h"

namespace dcape {
namespace {

// Differential property suite for the streaming cleanup: for randomized
// spill layouts — whole generations, partial (bucket-granular)
// generations, eviction fragments, mixed v1/v2 encodings, empty groups,
// memory remainders, multiple engines — the merge must produce exactly
// the result multiset and the deterministic stats of a brute-force
// reference that enumerates every combination straight from the
// layout's tuples.

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key, Tick ts = 0,
                int64_t value = 0, int64_t category = 0) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.timestamp = ts;
  t.value = value;
  t.category = category;
  t.payload = "payload";
  return t;
}

/// Multiset element covering every field the reference must match.
std::string FullKey(const JoinResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "p%d k%lld g%lld a%lld t%lld",
                r.partition, static_cast<long long>(r.join_key),
                static_cast<long long>(r.group_key),
                static_cast<long long>(r.agg_value),
                static_cast<long long>(r.latest_member_ts));
  std::string key = buf;
  for (int64_t seq : r.member_seqs) {
    std::snprintf(buf, sizeof(buf), ":%lld", static_cast<long long>(seq));
    key += buf;
  }
  return key;
}

std::vector<std::string> SortedKeys(const std::vector<JoinResult>& results) {
  std::vector<std::string> keys;
  keys.reserve(results.size());
  for (const JoinResult& r : results) keys.push_back(FullKey(r));
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// One randomized spill layout, regenerated identically for every run of
/// the same seed so each run sees its own fresh stores and states.
struct LayoutSegment {
  EngineId engine = 0;
  PartitionId partition = 0;
  Tick spill_time = 0;
  bool evicted = false;
  bool partial = false;
  SegmentFormat format = SegmentFormat::kV2;
  std::vector<Tuple> tuples;
};

struct LayoutMemTuple {
  EngineId engine = 0;
  PartitionId partition = 0;
  Tuple tuple;
};

struct Layout {
  int num_streams = 2;
  int num_engines = 1;
  std::vector<LayoutSegment> segments;
  std::vector<LayoutMemTuple> memory;
};

Layout GenerateLayout(uint64_t seed) {
  Rng rng(seed ^ 0x5E6F7A8B9CADBECFULL);
  Layout layout;
  layout.num_streams = 2 + static_cast<int>(rng.Uniform(2));
  layout.num_engines = 1 + static_cast<int>(rng.Uniform(2));
  const int num_partitions = 2 + static_cast<int>(rng.Uniform(4));
  int64_t seq = 1;
  Tick spill_time = 10;
  for (PartitionId p = 0; p < num_partitions; ++p) {
    // Disjoint key domain per partition; a small range per partition so
    // cross-generation matches actually occur.
    const JoinKey key_base = 1000 * (p + 1);
    const int num_segments = static_cast<int>(rng.Uniform(4));  // 0..3
    for (int g = 0; g < num_segments; ++g) {
      LayoutSegment seg;
      seg.engine = static_cast<EngineId>(
          rng.Uniform(static_cast<uint64_t>(layout.num_engines)));
      seg.partition = p;
      seg.spill_time = spill_time++;
      seg.evicted = rng.Bernoulli(0.25);
      seg.partial = rng.Bernoulli(0.2);
      seg.format = rng.Bernoulli(0.5) ? SegmentFormat::kV2
                                      : SegmentFormat::kV1;
      // 0 tuples is deliberate: an empty-group segment must be skipped
      // from metadata alone, with no I/O charged.
      const int num_tuples = static_cast<int>(rng.Uniform(8));
      for (int i = 0; i < num_tuples; ++i) {
        seg.tuples.push_back(MakeTuple(
            static_cast<StreamId>(
                rng.Uniform(static_cast<uint64_t>(layout.num_streams))),
            seq++, key_base + static_cast<JoinKey>(rng.Uniform(6)),
            static_cast<Tick>(rng.Uniform(200)),
            static_cast<int64_t>(rng.Uniform(1000)),
            static_cast<int64_t>(rng.Uniform(5))));
      }
      layout.segments.push_back(std::move(seg));
    }
    // Memory remainders: possibly on several engines (a relocated
    // partition's remainder lives where it last ran).
    for (EngineId e = 0; e < layout.num_engines; ++e) {
      if (!rng.Bernoulli(0.6)) continue;
      const int num_tuples = 1 + static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < num_tuples; ++i) {
        layout.memory.push_back(LayoutMemTuple{
            e, p,
            MakeTuple(static_cast<StreamId>(rng.Uniform(
                          static_cast<uint64_t>(layout.num_streams))),
                      seq++, key_base + static_cast<JoinKey>(rng.Uniform(6)),
                      static_cast<Tick>(rng.Uniform(200)),
                      static_cast<int64_t>(rng.Uniform(1000)),
                      static_cast<int64_t>(rng.Uniform(5)))});
      }
    }
  }
  return layout;
}

struct BuiltLayout {
  std::vector<std::unique_ptr<SpillStore>> stores;
  std::vector<std::unique_ptr<StateManager>> states;
  std::vector<const SpillStore*> store_ptrs;
  std::vector<const StateManager*> state_ptrs;
};

BuiltLayout Build(const Layout& layout) {
  BuiltLayout built;
  for (EngineId e = 0; e < layout.num_engines; ++e) {
    built.stores.push_back(
        std::make_unique<SpillStore>(e, SpillStore::Config{},
                                     std::make_unique<MemoryDiskBackend>()));
    built.states.push_back(
        std::make_unique<StateManager>(layout.num_streams));
  }
  for (const LayoutSegment& seg : layout.segments) {
    PartitionGroup group(seg.partition, layout.num_streams);
    for (const Tuple& t : seg.tuples) group.InsertOnly(t);
    std::string blob;
    group.Serialize(&blob, seg.format);
    StatusOr<Tick> written = built.stores[static_cast<size_t>(seg.engine)]
                                 ->WriteSegment(
                                     seg.partition, seg.spill_time, blob,
                                     static_cast<int64_t>(seg.tuples.size()),
                                     seg.evicted, /*raw_bytes=*/-1,
                                     seg.partial);
    DCAPE_CHECK(written.ok());
  }
  for (const LayoutMemTuple& mt : layout.memory) {
    built.states[static_cast<size_t>(mt.engine)]->ProcessTuple(
        mt.partition, mt.tuple, nullptr);
  }
  for (const auto& store : built.stores) built.store_ptrs.push_back(store.get());
  for (const auto& state : built.states) built.state_ptrs.push_back(state.get());
  return built;
}

CleanupConfig ConfigForSeed(uint64_t seed) {
  Rng rng(seed ^ 0x11A22B33C44D55EULL);
  CleanupConfig config;
  config.collect_results = true;
  // Tiny blocks so nearly every segment spans several block reads.
  config.block_bytes = 64 << rng.Uniform(4);  // 64..512 bytes
  if (rng.Bernoulli(0.3)) config.window_ticks = 100;
  if (rng.Bernoulli(0.3)) {
    config.projection = ResultProjection{/*group_stream=*/0,
                                         AggregateOp::kMin};
  }
  return config;
}

StatusOr<CleanupStats> RunSeed(uint64_t seed, ExecPool* pool = nullptr) {
  const Layout layout = GenerateLayout(seed);
  BuiltLayout built = Build(layout);
  CleanupProcessor processor(ConfigForSeed(seed), layout.num_streams);
  return processor.Run(built.store_ptrs, built.state_ptrs, pool);
}

/// What cleanup owes for one layout, by brute force.
struct Expected {
  std::vector<std::string> results;  // sorted FullKey multiset
  int64_t segments_read = 0;
  int64_t bytes_read = 0;
  int64_t partitions_cleaned = 0;
  std::vector<Tick> engine_ticks;
  Tick total_ticks = 0;
};

/// One generation of a partition as the reference sees it.
struct RefGeneration {
  bool memory = false;  // memory remainders sort after every spill
  Tick spill_time = 0;
  EngineId engine = 0;
  int64_t segment_id = 0;
  bool evicted = false;
  int64_t bytes = 0;
  std::vector<Tuple> tuples;
};

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

/// Brute-force reference: enumerates every combination of one tuple per
/// stream straight from the layout's tuples and labels each tuple with
/// its logical generation; the tick model reads only the stores' segment
/// metadata and each remainder's bytes(). Shares no code with the
/// cleanup pipeline.
Expected BruteForce(const Layout& layout, const BuiltLayout& built,
                    const CleanupConfig& config) {
  const size_t m = static_cast<size_t>(layout.num_streams);
  Expected out;
  out.engine_ticks.assign(static_cast<size_t>(layout.num_engines), 0);

  // Disk generations: each engine's store holds its layout segments in
  // write order. Empty segments cost nothing and join nothing.
  std::map<PartitionId, std::vector<RefGeneration>> partitions;
  std::vector<size_t> written(static_cast<size_t>(layout.num_engines), 0);
  for (const LayoutSegment& seg : layout.segments) {
    const size_t e = static_cast<size_t>(seg.engine);
    const SpillStore& store = *built.stores[e];
    const SpillSegmentMeta& meta = store.segments()[written[e]++];
    DCAPE_CHECK_EQ(meta.partition, seg.partition);
    if (seg.tuples.empty()) continue;
    out.segments_read += 1;
    out.bytes_read += meta.bytes;
    out.engine_ticks[e] +=
        CeilDiv(meta.bytes, store.config().read_bytes_per_tick);
    partitions[seg.partition].push_back(
        RefGeneration{false, meta.spill_time, seg.engine, meta.segment_id,
                      seg.evicted, meta.bytes, seg.tuples});
  }
  // Memory remainders: one generation per (partition, engine).
  std::map<std::pair<PartitionId, EngineId>, std::vector<Tuple>> remainders;
  for (const LayoutMemTuple& mt : layout.memory) {
    remainders[{mt.partition, mt.engine}].push_back(mt.tuple);
  }
  for (auto& [where, tuples] : remainders) {
    const auto [p, e] = where;
    const int64_t bytes =
        built.states[static_cast<size_t>(e)]->FindGroup(p)->bytes();
    partitions[p].push_back(
        RefGeneration{true, 0, e, 0, false, bytes, std::move(tuples)});
  }

  for (auto& [partition, gens] : partitions) {
    std::sort(gens.begin(), gens.end(),
              [](const RefGeneration& a, const RefGeneration& b) {
                return std::tie(a.memory, a.spill_time, a.engine,
                                a.segment_id) <
                       std::tie(b.memory, b.spill_time, b.engine,
                                b.segment_id);
              });
    // Units are the generations that are not eviction fragments, in
    // order; index `units` is the one trailing unit.
    std::vector<std::set<JoinKey>> unit_keys;
    for (const RefGeneration& gen : gens) {
      if (gen.evicted) continue;
      unit_keys.emplace_back();
      for (const Tuple& t : gen.tuples) unit_keys.back().insert(t.join_key);
    }
    const size_t units = unit_keys.size();
    std::vector<int64_t> unit_bytes(units + 1, 0);
    std::vector<EngineId> unit_engine(units + 1, 0);
    bool trailing = false;

    // Label every tuple with its logical generation: a unit's own index;
    // for a fragment tuple, the first unit at or after the fragment
    // whose tuples include its key, else the trailing unit.
    struct Labeled {
      const Tuple* tuple;
      size_t label;
    };
    std::map<JoinKey, std::vector<std::vector<Labeled>>> by_key;
    size_t next_unit = 0;
    for (const RefGeneration& gen : gens) {
      // A fragment's bytes count toward the next unit after it.
      unit_bytes[next_unit] += gen.bytes;
      unit_engine[next_unit] = gen.engine;
      for (const Tuple& t : gen.tuples) {
        size_t label = next_unit;
        if (gen.evicted) {
          while (label < units && unit_keys[label].count(t.join_key) == 0) {
            ++label;
          }
          if (label == units) trailing = true;
        }
        std::vector<std::vector<Labeled>>& streams = by_key[t.join_key];
        streams.resize(m);
        streams[static_cast<size_t>(t.stream_id)].push_back(
            Labeled{&t, label});
      }
      if (!gen.evicted) ++next_unit;
    }
    if (units + (trailing ? 1 : 0) < 2) continue;

    // Every combination of one member per stream whose members span
    // more than one logical generation and fit the window.
    int64_t produced = 0;
    for (const auto& [key, streams] : by_key) {
      bool complete = true;
      for (const auto& members : streams) complete &= !members.empty();
      if (!complete) continue;
      std::vector<size_t> pick(m, 0);
      while (true) {
        JoinResult r;
        r.partition = partition;
        r.join_key = key;
        r.member_seqs.assign(m, 0);
        bool one_generation = true;
        Tick min_ts = 0;
        Tick max_ts = 0;
        for (size_t s = 0; s < m; ++s) {
          const Labeled& member = streams[s][pick[s]];
          const Tuple& t = *member.tuple;
          r.member_seqs[s] = t.seq;
          one_generation &= member.label == streams[0][pick[0]].label;
          min_ts = s == 0 ? t.timestamp : std::min(min_ts, t.timestamp);
          max_ts = s == 0 ? t.timestamp : std::max(max_ts, t.timestamp);
          if (config.projection.has_value()) {
            if (static_cast<int>(s) == config.projection->group_stream) {
              r.group_key = t.category;
            }
            r.agg_value = FoldAggregate(config.projection->op, r.agg_value,
                                        t.value, s == 0);
          }
        }
        r.latest_member_ts = max_ts;
        if (!one_generation && (config.window_ticks <= 0 ||
                                max_ts - min_ts <= config.window_ticks)) {
          out.results.push_back(FullKey(r));
          ++produced;
        }
        size_t s = m;
        while (s > 0 && ++pick[s - 1] == streams[s - 1].size()) {
          pick[--s] = 0;
        }
        if (s == 0) break;
      }
    }

    // The home holds the most bytes (lowest engine id on ties); it
    // fetches every logical generation held elsewhere and pays the join
    // CPU of what the partition produced.
    std::map<EngineId, int64_t> bytes_at;
    for (size_t u = 0; u <= units; ++u) {
      if (unit_bytes[u] > 0) bytes_at[unit_engine[u]] += unit_bytes[u];
    }
    EngineId home = 0;
    int64_t most = -1;
    for (const auto& [engine, bytes] : bytes_at) {
      if (bytes > most) {
        most = bytes;
        home = engine;
      }
    }
    Tick& home_ticks = out.engine_ticks[static_cast<size_t>(home)];
    for (size_t u = 0; u <= units; ++u) {
      if (unit_bytes[u] > 0 && unit_engine[u] != home) {
        home_ticks += CeilDiv(unit_bytes[u], config.network_bytes_per_tick);
      }
    }
    if (produced > 0) {
      home_ticks += CeilDiv(produced, config.results_per_tick);
      out.partitions_cleaned += 1;
    }
  }
  std::sort(out.results.begin(), out.results.end());
  for (Tick t : out.engine_ticks) {
    out.total_ticks = std::max(out.total_ticks, t);
  }
  return out;
}

TEST(CleanupStreamDifferentialTest, RandomLayoutsMatchBruteForce) {
  int owing = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    const Layout layout = GenerateLayout(seed);
    const CleanupConfig config = ConfigForSeed(seed);
    BuiltLayout built = Build(layout);
    const Expected expected = BruteForce(layout, built, config);
    CleanupProcessor processor(config, layout.num_streams);
    StatusOr<CleanupStats> stats =
        processor.Run(built.store_ptrs, built.state_ptrs);
    ASSERT_TRUE(stats.ok()) << "seed=" << seed << ": " << stats.status();
    EXPECT_EQ(stats->result_count,
              static_cast<int64_t>(expected.results.size()))
        << "seed=" << seed;
    EXPECT_EQ(SortedKeys(stats->results), expected.results)
        << "seed=" << seed;
    // Deterministic accounting must agree exactly: segments, bytes, and
    // the virtual-time attribution per engine.
    EXPECT_EQ(stats->segments_read, expected.segments_read)
        << "seed=" << seed;
    EXPECT_EQ(stats->bytes_read, expected.bytes_read) << "seed=" << seed;
    EXPECT_EQ(stats->partitions_cleaned, expected.partitions_cleaned)
        << "seed=" << seed;
    EXPECT_EQ(stats->engine_ticks, expected.engine_ticks) << "seed=" << seed;
    EXPECT_EQ(stats->total_ticks, expected.total_ticks) << "seed=" << seed;
    // Streaming accounting stays internally consistent on every layout.
    EXPECT_EQ(stats->resident_bytes_leaked, 0) << "seed=" << seed;
    if (!expected.results.empty()) ++owing;
  }
  // The generator must actually exercise the merge, not vacuous layouts.
  EXPECT_GE(owing, 200);
}

TEST(CleanupStreamDifferentialTest, BitIdenticalAcrossThreads) {
  for (uint64_t seed : {3u, 7u, 11u}) {
    StatusOr<CleanupStats> serial = RunSeed(seed);
    ASSERT_TRUE(serial.ok()) << "seed=" << seed;
    for (int workers : {1, 4, 8}) {
      ExecPool pool(workers);
      StatusOr<CleanupStats> parallel = RunSeed(seed, &pool);
      ASSERT_TRUE(parallel.ok()) << "seed=" << seed << " workers=" << workers;
      EXPECT_EQ(parallel->result_count, serial->result_count);
      EXPECT_EQ(parallel->total_ticks, serial->total_ticks);
      EXPECT_EQ(parallel->engine_ticks, serial->engine_ticks);
      EXPECT_EQ(parallel->blocks_read, serial->blocks_read);
      ASSERT_EQ(parallel->results.size(), serial->results.size());
      // Exact order, not just multiset: the fixed-partition-order fold
      // must make the collected vector identical for any worker count.
      for (size_t i = 0; i < serial->results.size(); ++i) {
        EXPECT_EQ(FullKey(parallel->results[i]), FullKey(serial->results[i]))
            << "seed=" << seed << " workers=" << workers << " result " << i;
      }
    }
  }
}

TEST(CleanupStreamDifferentialTest, BlockSizeDoesNotChangeResults) {
  // Deterministically pick the first sampled layout that actually owes
  // cross-generation results (some random layouts owe none).
  Layout layout;
  bool found = false;
  for (uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    layout = GenerateLayout(seed);
    BuiltLayout built = Build(layout);
    CleanupConfig config;
    config.collect_results = true;
    CleanupProcessor processor(config, layout.num_streams);
    StatusOr<CleanupStats> stats =
        processor.Run(built.store_ptrs, built.state_ptrs);
    ASSERT_TRUE(stats.ok()) << "seed=" << seed;
    found = stats->result_count > 0;
  }
  ASSERT_TRUE(found);
  std::vector<std::string> reference;
  int64_t reference_blocks = 0;
  for (int64_t block_bytes : {64, 256, 4096, 1 << 20}) {
    BuiltLayout built = Build(layout);
    CleanupConfig config;
    config.collect_results = true;
    config.block_bytes = block_bytes;
    CleanupProcessor processor(config, layout.num_streams);
    StatusOr<CleanupStats> stats =
        processor.Run(built.store_ptrs, built.state_ptrs);
    ASSERT_TRUE(stats.ok()) << "block_bytes=" << block_bytes;
    EXPECT_EQ(stats->resident_bytes_leaked, 0);
    if (reference.empty()) {
      reference = SortedKeys(stats->results);
      reference_blocks = stats->blocks_read;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(SortedKeys(stats->results), reference)
          << "block_bytes=" << block_bytes;
      // Smaller blocks mean more block reads for the same bytes.
      EXPECT_LE(stats->blocks_read, reference_blocks)
          << "block_bytes=" << block_bytes;
      reference_blocks = stats->blocks_read;
    }
  }
}

TEST(CleanupStreamDifferentialTest, EmptyGroupSegmentsChargeNoIo) {
  // A segment whose group is empty contributes nothing; cleanup must
  // skip it from metadata alone — zero reads, zero bytes, zero ticks.
  auto store = std::make_unique<SpillStore>(
      0, SpillStore::Config{}, std::make_unique<MemoryDiskBackend>());
  PartitionGroup group(0, 2);
  std::string blob;
  group.Serialize(&blob);
  ASSERT_TRUE(store->WriteSegment(0, 10, blob, 0).ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(0, 1, 5), nullptr);
  state.ProcessTuple(0, MakeTuple(1, 2, 5), nullptr);

  CleanupConfig config;
  config.collect_results = true;
  CleanupProcessor processor(config, 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->segments_read, 0);
  EXPECT_EQ(stats->bytes_read, 0);
  EXPECT_EQ(stats->total_ticks, 0);
  // The memory remainder alone is one generation — nothing to clean.
  EXPECT_EQ(stats->result_count, 0);
}

TEST(CleanupStreamDifferentialTest, StreamCountMismatchFails) {
  auto store = std::make_unique<SpillStore>(
      0, SpillStore::Config{}, std::make_unique<MemoryDiskBackend>());
  PartitionGroup group(0, 3);  // three streams on disk...
  group.InsertOnly(MakeTuple(0, 1, 5));
  std::string blob;
  group.Serialize(&blob);
  ASSERT_TRUE(store->WriteSegment(0, 10, blob, 1).ok());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 2, 5), nullptr);

  CleanupProcessor processor(CleanupConfig{}, 2);  // ...two expected
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().ToString().find("stream count mismatch"),
            std::string::npos)
      << stats.status().ToString();
}

TEST(CleanupStreamDifferentialTest, SegmentWithoutSectionIndexFails) {
  // Bytes that are not a group blob get no section index at write time;
  // cleanup rejects the segment from its metadata instead of reading it.
  auto store = std::make_unique<SpillStore>(
      0, SpillStore::Config{}, std::make_unique<MemoryDiskBackend>());
  ASSERT_TRUE(store->WriteSegment(0, 10, "not a group blob", 1).ok());
  ASSERT_TRUE(store->segments()[0].sections.offsets.empty());
  StateManager state(2);
  state.ProcessTuple(0, MakeTuple(1, 2, 5), nullptr);

  CleanupProcessor processor(CleanupConfig{}, 2);
  StatusOr<CleanupStats> stats = processor.Run({store.get()}, {&state});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stats.status().ToString().find("section index"),
            std::string::npos)
      << stats.status().ToString();
}

TEST(CleanupStreamDifferentialTest, CountsEveryResultWithoutCollecting) {
  const uint64_t seed = 9;
  StatusOr<CleanupStats> collected = RunSeed(seed);
  ASSERT_TRUE(collected.ok());
  ASSERT_GT(collected->result_count, 0);

  const Layout layout = GenerateLayout(seed);
  BuiltLayout built = Build(layout);
  CleanupConfig config = ConfigForSeed(seed);
  config.collect_results = false;
  CleanupProcessor processor(config, layout.num_streams);
  StatusOr<CleanupStats> counted =
      processor.Run(built.store_ptrs, built.state_ptrs);
  ASSERT_TRUE(counted.ok());
  EXPECT_TRUE(counted->results.empty());
  EXPECT_EQ(counted->result_count, collected->result_count);
}

}  // namespace
}  // namespace dcape
