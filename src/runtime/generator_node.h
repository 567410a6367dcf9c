#ifndef DCAPE_RUNTIME_GENERATOR_NODE_H_
#define DCAPE_RUNTIME_GENERATOR_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/virtual_clock.h"
#include "net/transport.h"
#include "stream/input_source.h"
#include "stream/trace.h"
#include "tuple/tuple.h"

namespace dcape {

/// The stream-generator machine (the paper dedicates one cluster node to
/// it, §3.1). Each call pulls the due tuples of a tick range from its
/// InputSource (synthetic generator or trace replay), optionally records
/// them to a trace, and ships one batch per (split host, stream) — the
/// split operators themselves may be spread over several machines (paper
/// §2: stateless operators are distributed freely).
class GeneratorNode {
 public:
  /// `split_host_of_stream[s]` is the node hosting stream s's split.
  /// `record_trace`, when non-null, receives the emitted trace.
  GeneratorNode(NodeId node_id, std::unique_ptr<InputSource> source,
                std::vector<NodeId> split_host_of_stream, Transport* network,
                std::string* record_trace);

  GeneratorNode(const GeneratorNode&) = delete;
  GeneratorNode& operator=(const GeneratorNode&) = delete;

  ~GeneratorNode() { FinishTrace(); }

  /// Emits the tuples of ticks [first, last] toward the split hosts: one
  /// batch per (split host, stream), sent in that order, each holding
  /// its stream's tuples in tick order. The simulator calls it once per
  /// tick (first == last); the realtime generator coalesces the ticks it
  /// is already late for into one call. `generate=false` silences the
  /// source (drain phase).
  void OnTicks(Tick first, Tick last, bool generate = true);

  /// Realtime only: wall-clock stamp (microseconds since run start)
  /// copied onto every batch the *next* OnTicks emits, so the sink can
  /// measure end-to-end latency. The virtual-clock driver never calls
  /// this and batches carry 0.
  void StampNextEmit(int64_t wall_us) { emit_wall_us_ = wall_us; }

  /// Finalizes the recording trace (idempotent).
  void FinishTrace();

  const InputSource& source() const { return *source_; }

 private:
  NodeId node_id_;
  std::unique_ptr<InputSource> source_;
  std::vector<NodeId> split_host_of_stream_;
  /// Stream ids in (split host, stream) order: the order OnTicks sends in.
  std::vector<StreamId> send_order_;
  /// OnTicks' tuples per stream, reused across calls.
  std::vector<std::vector<Tuple>> pending_;
  Transport* network_;
  std::unique_ptr<TraceWriter> trace_writer_;
  int64_t emit_wall_us_ = 0;
};

}  // namespace dcape

#endif  // DCAPE_RUNTIME_GENERATOR_NODE_H_
