#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>

#include "common/virtual_clock.h"
#include "runtime/cluster_config.h"
#include "spans.h"

namespace perfbench {

/// Unit cost of each layer's public entry point, from a replay of the
/// workload's generated input. Rates are in MiB/s; tracked MiB for the
/// state calls, encoded MiB for serde and storage. A layer the replay
/// never reaches (eviction without a window) reads 0.
struct LayerCosts {
  double emit_ns = 0;          // StreamGenerator::EmitForTick, per tuple
  double route_ns = 0;         // Split::Route, per tuple
  double send_deliver_ns = 0;  // Network::Send + DeliverUntil, per message
  double probe_insert_ns = 0;  // StateManager::ProcessTuple, per tuple
  double evict_ns = 0;         // StateManager::EvictExpired, per evicted tuple
  double extract_mib_s = 0;    // StateManager::ExtractColdState
  double install_mib_s = 0;    // StateManager::InstallGroup
  double encode_mib_s = 0;     // PartitionGroup::Serialize
  double decode_mib_s = 0;     // PartitionGroup::Deserialize
  double write_mib_s = 0;      // SpillStore::WriteSegment
  double read_mib_s = 0;       // SpillStore::ReadSegmentRange
  double spsc_hop_ns = 0;      // SpscTransport::Send -> Poll, per message
};

/// Regenerates the input of ticks [0, last_tick] and sends it through
/// each layer's public entry point on one thread, state growing as the
/// input arrives (the SPSC hop alone runs producer and consumer on two
/// threads, over the first tuple batches, with rings of
/// `link_capacity`). Every layer's calls are recorded as spans under
/// `spans`. The replay reproduces the input, not the run's adaptation
/// decisions: nothing spills or relocates while the state grows, and
/// extraction, serde, storage and install then run on the grown state.
[[nodiscard]] LayerCosts ReplayLayers(const dcape::ClusterConfig& config,
                                      dcape::Tick last_tick,
                                      size_t link_capacity,
                                      SpanRecorder& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
