#ifndef DCAPE_RUNTIME_SPLIT_HOST_H_
#define DCAPE_RUNTIME_SPLIT_HOST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.h"
#include "common/virtual_clock.h"
#include "net/message.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "operators/select.h"
#include "operators/split.h"

namespace dcape {

namespace sim {
class InvariantRecorder;
}  // namespace sim

/// Configuration of one split-host node.
struct SplitHostConfig {
  NodeId node_id = kInvalidNode;
  NodeId coordinator_node = kInvalidNode;
  /// The input streams whose split operators live on this host. The
  /// paper distributes the stateless splits over the cluster machines
  /// (§2); a single host carrying all streams is the degenerate case.
  std::vector<StreamId> streams;
  /// Optional WHERE predicate per hosted stream (parallel to `streams`;
  /// empty = no selection).
  std::vector<SelectPredicate> select_per_stream;
  /// Optional projection: truncate payloads to this many bytes before
  /// routing.
  std::optional<int> project_payload_to;
  /// Chaos-harness invariant sink (unowned; null in production). When
  /// set, the host reports pause/release protocol violations: duplicate
  /// pauses, routing updates for unknown relocations, partitions left
  /// paused after release, buffered tuples leaked outside a relocation.
  sim::InvariantRecorder* invariants = nullptr;
  /// Structured tracer (unowned; null = tracing disabled). The host
  /// emits pause/flush instants on lane `node_id`.
  obs::Tracer* tracer = nullptr;
};

/// A node hosting split operators for a subset of the input streams.
///
/// Tuples arrive as batches from the generator node; the host applies the
/// stateless pre-split operators (selection, projection), routes by
/// partition to the owning engine, and implements the split side of the
/// relocation protocol: pause + buffer, drain markers toward the old
/// owner, and buffered-tuple flush to the new owner on UpdateRouting.
class SplitHost {
 public:
  /// `placement[p]` is the initial engine of partition p.
  SplitHost(const SplitHostConfig& config, std::vector<EngineId> placement,
            Transport* network);

  SplitHost(const SplitHost&) = delete;
  SplitHost& operator=(const SplitHost&) = delete;

  /// Network delivery callback (tuple batches + protocol messages).
  void OnMessage(Tick now, const Message& message);

  /// Data-plane fast path: routes the batch without copying its tuples.
  void OnTupleBatch(Tick now, TupleBatch&& batch);

  Split& split(StreamId stream);
  const Split& split(StreamId stream) const;
  bool HostsStream(StreamId stream) const {
    return stream >= 0 &&
           static_cast<size_t>(stream) < split_of_stream_.size() &&
           split_of_stream_[static_cast<size_t>(stream)] != nullptr;
  }
  const std::vector<StreamId>& streams() const { return config_.streams; }

  /// Tuples buffered across this host's splits (nonzero mid-relocation).
  int64_t total_buffered() const;

  /// Paused partitions across this host's splits (0 at quiescence).
  int64_t paused_partition_count() const;

  /// The selection operator of one hosted stream (null when none).
  const SelectOp* select(StreamId stream) const {
    auto it = selects_.find(stream);
    return it == selects_.end() ? nullptr : it->second.get();
  }
  /// The projection operator (null when not configured).
  const ProjectOp* project() const { return project_.get(); }

 private:
  /// Applies select/project and routes fresh tuples. `emit_wall_us`
  /// (realtime runs) is copied onto every outgoing batch.
  void FilterAndRoute(Tick now, std::vector<Tuple> tuples,
                      int64_t emit_wall_us);
  /// Routes tuples (no filtering; used for buffered re-release too) and
  /// sends one batch per (engine, stream), in that order.
  void RouteAndSend(Tick now, std::vector<Tuple> tuples,
                    int64_t emit_wall_us);
  void SendBatch(Tick now, EngineId engine, StreamId stream,
                 std::vector<Tuple> tuples, int64_t emit_wall_us);

  SplitHostConfig config_;
  Transport* network_;
  /// Relocation ids paused here and not yet released (invariant
  /// bookkeeping; only maintained when config_.invariants is set).
  std::set<int64_t> paused_relocations_;
  /// The hosted splits in ascending stream order, and each stream's split
  /// by stream id (null where this host does not carry the stream).
  std::vector<std::unique_ptr<Split>> splits_;
  std::vector<Split*> split_of_stream_;
  /// RouteAndSend's scratch, reused across calls: each tuple's engine
  /// (kBuffered for a paused partition), the per-(engine, stream) buckets
  /// at index engine * split_of_stream_.size() + stream, and the indexes
  /// of the buckets a call filled.
  static constexpr EngineId kBuffered = -1;
  std::vector<EngineId> routes_;
  std::vector<std::vector<Tuple>> buckets_;
  std::vector<size_t> touched_;
  std::map<StreamId, std::unique_ptr<SelectOp>> selects_;
  std::unique_ptr<ProjectOp> project_;
};

}  // namespace dcape

#endif  // DCAPE_RUNTIME_SPLIT_HOST_H_
