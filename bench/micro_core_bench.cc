// Micro-benchmarks (google-benchmark) for the core mechanisms: the m-way
// symmetric hash-join probe, partition-group serialization (the cost
// behind both spill and relocation), spill-store I/O, victim selection,
// the simulated network, and the workload generator. These quantify the
// constants behind the figure-level experiments and serve as ablations
// for the design choices called out in DESIGN.md.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cleanup/cleanup.h"
#include "common/rng.h"
#include "core/victim_policy.h"
#include "runtime/exec_pool.h"
#include "net/network.h"
#include "runtime/cluster.h"
#include "state/partition_group.h"
#include "state/state_manager.h"
#include "storage/disk_backend.h"
#include "storage/spill_store.h"
#include "stream/stream_generator.h"
#include "tuple/serde.h"

namespace dcape {
namespace {

Tuple MakeTuple(StreamId stream, int64_t seq, JoinKey key, int payload) {
  Tuple t;
  t.stream_id = stream;
  t.seq = seq;
  t.join_key = key;
  t.payload.assign(static_cast<size_t>(payload), 'x');
  return t;
}

/// Probe+insert with a configurable number of matches per other stream.
void BM_ProbeAndInsert(benchmark::State& state) {
  const int matches = static_cast<int>(state.range(0));
  PartitionGroup group(0, 3);
  for (int i = 0; i < matches; ++i) {
    group.InsertOnly(MakeTuple(1, i, 7, 32));
    group.InsertOnly(MakeTuple(2, i, 7, 32));
  }
  std::vector<JoinResult> results;
  int64_t seq = 1000;
  for (auto _ : state) {
    results.clear();
    Tuple t = MakeTuple(0, seq++, 7, 32);
    benchmark::DoNotOptimize(group.ProbeAndInsert(t, &results));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(matches) * matches);
}
BENCHMARK(BM_ProbeAndInsert)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_ProbeMiss(benchmark::State& state) {
  PartitionGroup group(0, 3);
  for (int i = 0; i < 1000; ++i) {
    group.InsertOnly(MakeTuple(1, i, i, 32));
  }
  int64_t seq = 0;
  for (auto _ : state) {
    // Stream 2 is empty → no results regardless of stream-1 matches.
    Tuple t = MakeTuple(0, seq, seq % 1000, 32);
    ++seq;
    benchmark::DoNotOptimize(group.ProbeAndInsert(t, nullptr));
  }
}
BENCHMARK(BM_ProbeMiss);

PartitionGroup BuildGroup(int tuples_per_stream, int payload) {
  PartitionGroup group(0, 3);
  for (int i = 0; i < tuples_per_stream; ++i) {
    for (StreamId s = 0; s < 3; ++s) {
      group.InsertOnly(MakeTuple(s, i, i % 50, payload));
    }
  }
  return group;
}

void BM_GroupSerialize(benchmark::State& state) {
  PartitionGroup group = BuildGroup(static_cast<int>(state.range(0)), 64);
  std::string blob;
  for (auto _ : state) {
    blob.clear();
    group.Serialize(&blob);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_GroupSerialize)->Arg(100)->Arg(1000)->Arg(10000);

/// Compact (v2) segment encoding, with the v2/v1 size ratio reported as
/// a counter — this is the on-disk saving the format buys.
void BM_SegmentEncodeV2(benchmark::State& state) {
  PartitionGroup group = BuildGroup(static_cast<int>(state.range(0)), 64);
  std::string v1;
  group.Serialize(&v1, SegmentFormat::kV1);
  std::string blob;
  for (auto _ : state) {
    blob.clear();
    group.Serialize(&blob, SegmentFormat::kV2);
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob.size()));
  state.counters["v2_v1_size_ratio"] =
      static_cast<double>(blob.size()) / static_cast<double>(v1.size());
}
BENCHMARK(BM_SegmentEncodeV2)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SegmentDecodeV2(benchmark::State& state) {
  PartitionGroup group = BuildGroup(static_cast<int>(state.range(0)), 64);
  std::string blob;
  group.Serialize(&blob, SegmentFormat::kV2);
  for (auto _ : state) {
    StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(blob);
    benchmark::DoNotOptimize(restored.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_SegmentDecodeV2)->Arg(100)->Arg(1000)->Arg(10000);

void BM_GroupDeserialize(benchmark::State& state) {
  PartitionGroup group = BuildGroup(static_cast<int>(state.range(0)), 64);
  std::string blob;
  group.Serialize(&blob);
  for (auto _ : state) {
    StatusOr<PartitionGroup> restored = PartitionGroup::Deserialize(blob);
    benchmark::DoNotOptimize(restored.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_GroupDeserialize)->Arg(100)->Arg(1000)->Arg(10000);

/// Batch serialization — the data-plane cost of every split → engine
/// hop. items/s is tuples encoded per second.
void BM_TupleBatchEncode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TupleBatch batch;
  batch.stream_id = 0;
  for (int i = 0; i < n; ++i) {
    batch.tuples.push_back(MakeTuple(0, i, i % 50, 64));
  }
  std::string out;
  for (auto _ : state) {
    out.clear();
    EncodeTupleBatch(batch, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TupleBatchEncode)->Arg(16)->Arg(256)->Arg(4096);

void BM_TupleBatchDecode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TupleBatch batch;
  batch.stream_id = 0;
  for (int i = 0; i < n; ++i) {
    batch.tuples.push_back(MakeTuple(0, i, i % 50, 64));
  }
  std::string blob;
  EncodeTupleBatch(batch, &blob);
  for (auto _ : state) {
    StatusOr<TupleBatch> decoded = DecodeTupleBatch(blob);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob.size()));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TupleBatchDecode)->Arg(16)->Arg(256)->Arg(4096);

void BM_SpillStoreWrite(benchmark::State& state) {
  SpillStore store(0, SpillStore::Config{},
                   std::make_unique<MemoryDiskBackend>());
  PartitionGroup group = BuildGroup(static_cast<int>(state.range(0)), 64);
  std::string blob;
  group.Serialize(&blob);
  Tick now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.WriteSegment(0, now++, blob, group.tuple_count()).ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob.size()));
}
BENCHMARK(BM_SpillStoreWrite)->Arg(100)->Arg(1000);

void BM_VictimSelection(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  std::vector<GroupStats> stats;
  Rng rng(5);
  for (int p = 0; p < groups; ++p) {
    GroupStats g;
    g.partition = p;
    g.bytes = 1000 + static_cast<int64_t>(rng.Uniform(9000));
    g.outputs = static_cast<int64_t>(rng.Uniform(1000));
    g.productivity = static_cast<double>(g.outputs) / g.bytes;
    stats.push_back(g);
  }
  const int64_t target = groups * 300;
  // PlanSpill's snapshot path: rank the stats, then plan against live
  // group sizes (here the snapshot's own).
  for (auto _ : state) {
    std::vector<GroupStats> ranked_stats =
        RankForSpill(stats, SpillPolicy::kLeastProductiveFirst, nullptr);
    std::vector<PartitionId> ranked;
    ranked.reserve(ranked_stats.size());
    for (const GroupStats& g : ranked_stats) ranked.push_back(g.partition);
    benchmark::DoNotOptimize(
        BuildSpillPlan(ranked, target, [&stats](PartitionId p) {
          return stats[static_cast<size_t>(p)].bytes;
        }));
  }
  state.SetItemsProcessed(state.iterations() * groups);
}
BENCHMARK(BM_VictimSelection)->Arg(60)->Arg(500)->Arg(5000);

void BM_NetworkSendDeliver(benchmark::State& state) {
  Network::Config config;
  config.latency_ticks = 1;
  Network net(config);
  int64_t delivered = 0;
  net.RegisterNode(1, [&delivered](Tick, const Message&) { ++delivered; });
  StatsReport report;
  Tick now = 0;
  for (auto _ : state) {
    net.Send(MakeStatsReportMessage(0, 1, report), now);
    net.DeliverWaves(now + 2);
    ++now;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliver);

/// The shape Cluster::StepTick delivers: every tick 3 sources send to 4
/// destinations, each destination forwards every message it gets once,
/// to a sink, and DeliverWaves runs the tick's waves. items/s = messages
/// delivered.
void BM_NetworkWaves(benchmark::State& state) {
  constexpr NodeId kSources = 3;
  constexpr NodeId kSink = kSources + 4;
  Network::Config config;
  config.latency_ticks = 1;
  Network net(config);
  int64_t delivered = 0;
  for (NodeId d = kSources; d < kSink; ++d) {
    net.RegisterNode(d, [&net, &delivered, d](Tick now, Message& m) {
      ++delivered;
      m.from = d;
      m.to = kSink;
      net.Send(std::move(m), now);
    });
  }
  net.RegisterNode(kSink, [&delivered](Tick, const Message&) { ++delivered; });
  StatsReport report;
  Tick now = 0;
  for (auto _ : state) {
    for (NodeId s = 0; s < kSources; ++s) {
      for (NodeId d = kSources; d < kSink; ++d) {
        net.Send(MakeStatsReportMessage(s, d, report), now);
      }
    }
    net.DeliverWaves(now);
    ++now;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_NetworkWaves);

void BM_StreamGeneratorEmit(benchmark::State& state) {
  WorkloadConfig config;
  config.num_streams = 3;
  config.num_partitions = 60;
  config.inter_arrival_ticks = 1;  // emit every tick
  config.classes = {PartitionClass{3.0, 180000}};
  StreamGenerator gen(config);
  Tick now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.EmitForTick(now++));
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_StreamGeneratorEmit);

/// The cluster BM_ClusterTick and BM_ClusterTickTraced step: 4 engines
/// under no adaptation, with a sliding window that bounds state so long
/// benchmark runs stay flat.
ClusterConfig ClusterTickConfig(bool trace) {
  ClusterConfig config;
  config.num_engines = 4;
  config.workload.num_streams = 3;
  config.workload.num_partitions = 24;
  config.workload.inter_arrival_ticks = 1;
  config.workload.payload_bytes = 40;
  config.workload.classes = {PartitionClass{1.0, 4800}};
  config.join_window_ticks = SecondsToTicks(5);
  config.strategy = AdaptationStrategy::kNoAdaptation;
  config.collect_results = false;
  config.run_cleanup = false;
  config.trace = trace;
  return config;
}

/// Steps `config`'s cluster 100 virtual ticks per iteration; items/s is
/// end-to-end tuples per wall second.
void StepClusterTicks(benchmark::State& state, const ClusterConfig& config) {
  Cluster cluster(config);
  Tick now = cluster.now();
  for (auto _ : state) {
    now += 100;
    cluster.RunUntil(now);
  }
  state.SetItemsProcessed(cluster.source().total_emitted());
}

/// Full cluster stepping: generator → splits → engines → sink.
void BM_ClusterTick(benchmark::State& state) {
  StepClusterTicks(state, ClusterTickConfig(/*trace=*/false));
}
BENCHMARK(BM_ClusterTick)->Unit(benchmark::kMillisecond);

/// BM_ClusterTick with structured tracing on: bounds the observability
/// plane's overhead (instrumentation sites are live; the data plane
/// itself stays untraced unless trace_verbose). Compare against
/// BM_ClusterTick — the contract is <= 10% (and <= 2% with tracing
/// off, which BM_ClusterTick itself measures, since every site is then
/// a null check).
void BM_ClusterTickTraced(benchmark::State& state) {
  StepClusterTicks(state, ClusterTickConfig(/*trace=*/true));
}
BENCHMARK(BM_ClusterTickTraced)->Unit(benchmark::kMillisecond);

/// The cleanup phase end-to-end: read every spilled generation back,
/// coalesce, and expand cross-generation combos, with the ExecPool
/// width and the spilled generations per partition as the benchmark
/// arguments. Generation g holds 40 keys per stream, [20g, 20g + 40), so
/// most keys live in two consecutive generations and the rest in one;
/// a merge whose per-key cost grows with the generation count shows at
/// 32. items/s is cleanup results per wall second.
void BM_CleanupPhase(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  const int generations = static_cast<int>(state.range(1));
  constexpr int kPartitions = 32;
  constexpr int kKeysPerGen = 40;  // one tuple per key and stream
  auto build_store = [] {
    return std::make_unique<SpillStore>(0, SpillStore::Config{},
                                        std::make_unique<MemoryDiskBackend>());
  };
  auto fill = [&](SpillStore* store, StateManager* manager) {
    for (int p = 0; p < kPartitions; ++p) {
      const JoinKey base =
          static_cast<JoinKey>(p) * StreamGenerator::kKeyStride;
      for (int g = 0; g < generations; ++g) {
        PartitionGroup group(p, 3);
        for (int i = 0; i < kKeysPerGen; ++i) {
          for (StreamId s = 0; s < 3; ++s) {
            group.InsertOnly(MakeTuple(s, g * kKeysPerGen + i,
                                       base + g * kKeysPerGen / 2 + i, 64));
          }
        }
        std::string blob;
        group.Serialize(&blob);
        benchmark::DoNotOptimize(
            store->WriteSegment(p, g * 100, blob, group.tuple_count()).ok());
      }
      // A small in-memory remainder per partition.
      for (StreamId s = 0; s < 3; ++s) {
        manager->ProcessTuple(p, MakeTuple(s, 100000 + p, base, 64), nullptr);
      }
    }
  };
  CleanupConfig config;
  config.collect_results = false;
  CleanupProcessor processor(config, 3);
  ExecPool pool(workers);
  int64_t results = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = build_store();
    StateManager manager(3);
    fill(store.get(), &manager);
    state.ResumeTiming();
    StatusOr<CleanupStats> stats =
        processor.Run({store.get()}, {&manager},
                      workers > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(stats.ok());
    results += stats->result_count;
  }
  state.SetItemsProcessed(results);
}
BENCHMARK(BM_CleanupPhase)
    ->ArgNames({"workers", "generations"})
    ->ArgsProduct({{1, 2, 4, 8}, {3, 32}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_StateManagerProcess(benchmark::State& state) {
  StateManager manager(3);
  Rng rng(7);
  int64_t seq = 0;
  for (auto _ : state) {
    const PartitionId p = static_cast<PartitionId>(rng.Uniform(60));
    Tuple t = MakeTuple(static_cast<StreamId>(seq % 3), seq,
                        static_cast<JoinKey>(p) * StreamGenerator::kKeyStride +
                            static_cast<JoinKey>(rng.Uniform(100)),
                        64);
    ++seq;
    benchmark::DoNotOptimize(manager.ProcessTuple(p, t, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateManagerProcess);

}  // namespace
}  // namespace dcape
