#include "layers.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/strategy.h"
#include "core/victim_policy.h"
#include "net/network.h"
#include "operators/split.h"
#include "rt/spsc_transport.h"
#include "runtime/cluster.h"
#include "state/partition_group.h"
#include "state/state_manager.h"
#include "storage/disk_backend.h"
#include "storage/spill_store.h"
#include "stream/stream_generator.h"

namespace perfbench {
namespace {

using dcape::EngineId;
using dcape::Message;
using dcape::NodeId;
using dcape::StateManager;
using dcape::Tick;
using dcape::Tuple;
using dcape::TupleBatch;

/// Tuples emitted per replay chunk: each layer is timed once per chunk,
/// so clock reads stay negligible against the work they time.
constexpr size_t kChunkTuples = 16384;
/// Tuple batches pushed through the SPSC hop.
constexpr size_t kSpscMessages = 1 << 18;
/// Encoded bytes of extracted pieces kept for the serde and install
/// replays.
constexpr int64_t kKeptBlobBytes = 64 * dcape::kMiB;
/// QueryEngine's default eviction period (EngineConfig::evict_period),
/// which the drivers do not override.
constexpr Tick kEvictPeriod = dcape::SecondsToTicks(10);

double PerUnitNs(double seconds, int64_t units) {
  return units > 0 ? seconds * 1e9 / static_cast<double>(units) : 0.0;
}

double MibPerSec(int64_t bytes, double seconds) {
  return seconds > 0
             ? static_cast<double>(bytes) / static_cast<double>(dcape::kMiB) /
                   seconds
             : 0.0;
}

/// Time and work per layer, summed over the replay.
struct Tally {
  double seconds = 0;
  int64_t units = 0;
};

class Replay {
 public:
  Replay(const dcape::ClusterConfig& config, size_t link_capacity,
         SpanRecorder& spans)
      : config_(config),
        link_capacity_(link_capacity),
        spans_(spans),
        generator_(config.workload),
        network_(config.network),
        rng_(config.seed),
        store_(0, config.disk,
               config.use_file_backend
                   ? dcape::MakeTempFileBackend("perfbench_replay")
                   : std::make_unique<dcape::MemoryDiskBackend>()) {
    const std::vector<EngineId> placement =
        dcape::Cluster::PlacementFor(config);
    for (int s = 0; s < config.workload.num_streams; ++s) {
      splits_.push_back(std::make_unique<dcape::Split>(s, placement));
    }
    for (int e = 0; e < config.num_engines; ++e) {
      states_.push_back(std::make_unique<StateManager>(
          config.workload.num_streams, config.projection,
          config.join_window_ticks, config.segment_format));
    }
    inbox_.resize(static_cast<size_t>(config.num_engines));
    for (int e = 0; e < config.num_engines; ++e) {
      network_.RegisterNode(e, [this, e](Tick, Message& message) {
        inbox_[static_cast<size_t>(e)].push_back(
            std::move(std::get<TupleBatch>(message.payload)));
      });
    }
    network_.RegisterNode(HostNode(), [](Tick, Message&) {});
  }

  // The network handlers hold `this`.
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  LayerCosts Run(Tick last_tick) {
    const bool adapts =
        config_.strategy != dcape::AdaptationStrategy::kNoAdaptation;
    Tick next_evict = kEvictPeriod;
    for (Tick t = 0; t <= last_tick;) {
      t = InputChunk(t, last_tick);
      if (config_.join_window_ticks > 0 && t >= next_evict) {
        Evict(t - config_.join_window_ticks);
        next_evict = t + kEvictPeriod;
      }
      if (!adapts) continue;
      for (auto& state : states_) {
        if (state->total_bytes() > config_.spill.memory_threshold_bytes) {
          Spill(*state);
        }
      }
    }
    // A workload that never adapts still gets one spill-shaped
    // extraction of its grown state, so the spill path has a unit cost.
    if (extract_.units == 0) {
      for (auto& state : states_) Spill(*state);
    }
    states_.clear();

    LayerCosts costs;
    costs.emit_ns = PerUnitNs(emit_.seconds, emit_.units);
    costs.route_ns = PerUnitNs(route_.seconds, route_.units);
    costs.send_deliver_ns = PerUnitNs(net_.seconds, net_.units);
    costs.probe_insert_ns = PerUnitNs(probe_.seconds, probe_.units);
    costs.evict_ns = PerUnitNs(evict_.seconds, evict_.units);
    costs.extract_mib_s = MibPerSec(extract_.units, extract_.seconds);
    costs.write_mib_s = MibPerSec(write_.units, write_.seconds);
    costs.read_mib_s = ReadBackMibPerSec();
    SerdeAndInstall(&costs);
    costs.spsc_hop_ns = SpscHopNs();
    return costs;
  }

 private:
  // Node ids as both drivers assign them: engines, coordinator, sink,
  // generator, then the split host.
  NodeId GeneratorNode() const { return config_.num_engines + 2; }
  NodeId HostNode() const { return config_.num_engines + 3; }

  /// Emits ticks from `t` until a chunk is full and sends them through
  /// routing, the network and probe/insert. Returns the next tick.
  Tick InputChunk(Tick t, Tick last_tick) {
    std::vector<std::pair<Tick, std::vector<Tuple>>> ticks;
    size_t tuples = 0;
    emit_.seconds += Timed(&spans_, "stream.StreamGenerator::EmitForTick", [&] {
      for (; t <= last_tick && tuples < kChunkTuples; ++t) {
        std::vector<Tuple> emitted = generator_.EmitForTick(t);
        if (emitted.empty()) continue;
        tuples += emitted.size();
        ticks.emplace_back(t, std::move(emitted));
      }
    });
    emit_.units += static_cast<int64_t>(tuples);

    std::vector<EngineId> owner;
    owner.reserve(tuples);
    route_.seconds += Timed(&spans_, "operators.Split::Route", [&] {
      for (const auto& [tick, emitted] : ticks) {
        for (const Tuple& tuple : emitted) {
          owner.push_back(
              *splits_[static_cast<size_t>(tuple.stream_id)]->Route(tuple));
        }
      }
    });
    route_.units += static_cast<int64_t>(tuples);

    std::vector<std::pair<Tick, std::vector<Message>>> sends =
        Batch(std::move(ticks), owner);
    const bool last_chunk = t > last_tick;
    net_.seconds += Timed(&spans_, "net.Network::Send+DeliverUntil", [&] {
      for (auto& [tick, messages] : sends) {
        for (Message& message : messages) {
          network_.Send(std::move(message), tick);
        }
        network_.DeliverUntil(tick);
      }
      if (last_chunk) {
        network_.DeliverUntil(last_tick + dcape::MinutesToTicks(1));
      }
    });

    std::vector<dcape::JoinResult> results;
    probe_.seconds += Timed(&spans_, "state.StateManager::ProcessTuple", [&] {
      for (size_t e = 0; e < states_.size(); ++e) {
        for (const TupleBatch& batch : inbox_[e]) {
          for (const Tuple& tuple : batch.tuples) {
            states_[e]->ProcessTuple(
                dcape::StreamGenerator::PartitionOfKey(tuple.join_key), tuple,
                &results);
            results.clear();
            ++probe_.units;
          }
        }
        inbox_[e].clear();
      }
    });
    return t;
  }

  /// The ticks' data-plane messages, batched as the generator node and
  /// the split host batch them: one per stream toward the split host,
  /// one per (engine, stream) toward the engines. The first engine-bound
  /// batches are also copied for the SPSC hop.
  std::vector<std::pair<Tick, std::vector<Message>>> Batch(
      std::vector<std::pair<Tick, std::vector<Tuple>>> ticks,
      const std::vector<EngineId>& owner) {
    std::vector<std::pair<Tick, std::vector<Message>>> sends;
    size_t next_owner = 0;
    for (auto& [tick, tuples] : ticks) {
      std::map<int, TupleBatch> to_host;
      std::map<std::pair<EngineId, int>, TupleBatch> to_engine;
      for (Tuple& tuple : tuples) {
        TupleBatch& host_batch = to_host[tuple.stream_id];
        host_batch.stream_id = tuple.stream_id;
        host_batch.tuples.push_back(tuple);
        TupleBatch& engine_batch =
            to_engine[{owner[next_owner++], tuple.stream_id}];
        engine_batch.stream_id = tuple.stream_id;
        engine_batch.tuples.push_back(std::move(tuple));
      }
      std::vector<Message> messages;
      for (auto& [stream, batch] : to_host) {
        messages.push_back(dcape::MakeTupleBatchMessage(
            GeneratorNode(), HostNode(), std::move(batch)));
      }
      for (auto& [key, batch] : to_engine) {
        messages.push_back(dcape::MakeTupleBatchMessage(
            HostNode(), key.first, std::move(batch)));
        if (spsc_messages_.size() < kSpscMessages) {
          spsc_messages_.push_back(messages.back());
          spsc_messages_.back().from = 0;
          spsc_messages_.back().to = 1;
        }
      }
      net_.units += static_cast<int64_t>(messages.size());
      sends.emplace_back(tick, std::move(messages));
    }
    return sends;
  }

  void Evict(Tick cutoff) {
    evict_.seconds += Timed(&spans_, "state.StateManager::EvictExpired", [&] {
      for (auto& state : states_) {
        for (const StateManager::ExtractedGroup& group :
             state->EvictExpired(cutoff)) {
          evict_.units += group.tuple_count;
        }
      }
    });
  }

  /// One spill as an engine's local controller plans it (victim ranking
  /// under the workload's policy, spill target, piece cap) through the
  /// public extraction and storage calls.
  void Spill(StateManager& state) {
    std::vector<dcape::PartitionId> ranked;
    for (const dcape::GroupStats& g : dcape::RankForSpill(
             state.SnapshotStats(/*exclude_locked=*/true), config_.spill.policy,
             &rng_)) {
      ranked.push_back(g.partition);
    }
    const std::vector<dcape::SpillRequest> plan = dcape::BuildSpillPlan(
        ranked,
        dcape::SpillTargetBytes(state.total_bytes(),
                                config_.spill.memory_threshold_bytes,
                                config_.spill.spill_fraction),
        [&state](dcape::PartitionId p) {
          const dcape::PartitionGroup* group = state.FindGroup(p);
          return group == nullptr ? int64_t{-1} : group->bytes();
        });
    std::vector<StateManager::ExtractedGroup> pieces;
    const int64_t max_piece =
        std::max<int64_t>(1, config_.spill.memory_threshold_bytes / 2);
    extract_.seconds +=
        Timed(&spans_, "state.StateManager::ExtractColdState", [&] {
          for (const dcape::SpillRequest& request : plan) {
            for (StateManager::ExtractedGroup& piece : state.ExtractColdState(
                     request.partition, request.bytes, max_piece,
                     config_.spill.max_subpartition_depth)) {
              extract_.units += piece.bytes;
              pieces.push_back(std::move(piece));
            }
          }
        });
    write_.seconds += Timed(&spans_, "storage.SpillStore::WriteSegment", [&] {
      for (const StateManager::ExtractedGroup& piece : pieces) {
        DCAPE_CHECK(store_
                        .WriteSegment(piece.partition, 0, piece.blob,
                                      piece.tuple_count, /*evicted=*/false,
                                      piece.raw_bytes, piece.partial,
                                      piece.sub_depth)
                        .ok());
        write_.units += static_cast<int64_t>(piece.blob.size());
      }
    });
    for (StateManager::ExtractedGroup& piece : pieces) {
      state.MarkDiskBacked(piece.partition);
      if (kept_blob_bytes_ < kKeptBlobBytes) {
        kept_blob_bytes_ += static_cast<int64_t>(piece.blob.size());
        kept_.push_back(std::move(piece));
      }
    }
  }

  /// Reads every written segment back in cleanup-sized blocks, then
  /// removes it.
  double ReadBackMibPerSec() {
    const int64_t block = config_.cleanup.block_bytes;
    int64_t bytes = 0;
    const double seconds =
        Timed(&spans_, "storage.SpillStore::ReadSegmentRange", [&] {
          for (const dcape::SpillSegmentMeta& meta : store_.segments()) {
            for (int64_t offset = 0; offset < meta.bytes; offset += block) {
              DCAPE_CHECK(store_
                              .ReadSegmentRange(
                                  meta, offset,
                                  std::min(block, meta.bytes - offset))
                              .ok());
            }
            bytes += meta.bytes;
          }
        });
    std::vector<int64_t> ids;
    for (const auto& meta : store_.segments()) ids.push_back(meta.segment_id);
    for (int64_t id : ids) DCAPE_CHECK(store_.RemoveSegment(id).ok());
    return MibPerSec(bytes, seconds);
  }

  /// Decodes and re-encodes the kept pieces, and installs them into a
  /// fresh state as a relocation receiver does.
  void SerdeAndInstall(LayerCosts* costs) {
    std::vector<dcape::PartitionGroup> decoded;
    const double decode_s =
        Timed(&spans_, "tuple.PartitionGroup::Deserialize", [&] {
          for (const auto& piece : kept_) {
            dcape::StatusOr<dcape::PartitionGroup> group =
                dcape::PartitionGroup::Deserialize(piece.blob);
            DCAPE_CHECK(group.ok());
            decoded.push_back(std::move(group).value());
          }
        });
    std::string encoded;
    const double encode_s =
        Timed(&spans_, "tuple.PartitionGroup::Serialize", [&] {
          for (const dcape::PartitionGroup& group : decoded) {
            encoded.clear();
            group.Serialize(&encoded, config_.segment_format);
          }
        });
    decoded.clear();
    costs->decode_mib_s = MibPerSec(kept_blob_bytes_, decode_s);
    costs->encode_mib_s = MibPerSec(kept_blob_bytes_, encode_s);

    StateManager receiver(config_.workload.num_streams, config_.projection,
                          config_.join_window_ticks, config_.segment_format);
    int64_t installed = 0;
    const double install_s =
        Timed(&spans_, "state.StateManager::InstallGroup", [&] {
          for (const auto& piece : kept_) {
            DCAPE_CHECK(receiver.InstallGroup(piece.blob).ok());
            installed += piece.bytes;
          }
        });
    costs->install_mib_s = MibPerSec(installed, install_s);
    kept_.clear();
  }

  /// Per-message time of a producer thread sending the copied batches
  /// to a consumer thread polling for them.
  double SpscHopNs() {
    if (spsc_messages_.empty()) return 0.0;
    dcape::rt::SpscTransport::Config transport_config;
    transport_config.link_capacity = link_capacity_;
    dcape::rt::SpscTransport transport(2, transport_config);
    std::atomic<int64_t> delivered{0};
    transport.RegisterNode(1, [&delivered](Tick, Message&) {
      delivered.fetch_add(1, std::memory_order_relaxed);
    });
    const int64_t total = static_cast<int64_t>(spsc_messages_.size());
    const double seconds =
        Timed(&spans_, "rt.SpscTransport::Send->Poll", [&] {
          std::thread consumer([&] {
            while (delivered.load(std::memory_order_relaxed) < total) {
              if (transport.Poll(1, 0) == 0) transport.WaitForInbound(1, 100);
            }
          });
          for (Message& message : spsc_messages_) {
            transport.Send(std::move(message), 0);
          }
          consumer.join();
        });
    spsc_messages_.clear();
    return PerUnitNs(seconds, total);
  }

  const dcape::ClusterConfig& config_;
  const size_t link_capacity_;
  SpanRecorder& spans_;
  dcape::StreamGenerator generator_;
  dcape::Network network_;
  dcape::Rng rng_;
  dcape::SpillStore store_;
  std::vector<std::unique_ptr<dcape::Split>> splits_;
  std::vector<std::unique_ptr<StateManager>> states_;
  std::vector<std::vector<TupleBatch>> inbox_;
  std::vector<Message> spsc_messages_;
  std::vector<StateManager::ExtractedGroup> kept_;
  int64_t kept_blob_bytes_ = 0;
  // Units: tuples (emit, route, probe, evict), messages (net), tracked
  // bytes (extract), encoded bytes (write).
  Tally emit_, route_, net_, probe_, evict_, extract_, write_;
};

}  // namespace

LayerCosts ReplayLayers(const dcape::ClusterConfig& config, Tick last_tick,
                        size_t link_capacity, SpanRecorder& spans) {
  const int span = spans.Begin("replay");
  LayerCosts costs = Replay(config, link_capacity, spans).Run(last_tick);
  spans.End(span);
  return costs;
}

}  // namespace perfbench
