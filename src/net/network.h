#ifndef DCAPE_NET_NETWORK_H_
#define DCAPE_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "net/message.h"
#include "net/transport.h"

namespace dcape {

/// The simulated cluster interconnect (the Transport implementation the
/// deterministic virtual-clock driver uses).
///
/// Stands in for the paper's private gigabit Ethernet. Messages incur a
/// fixed per-message latency plus a size-proportional transfer time
/// (`bytes / bytes_per_tick`). Delivery is deterministic: messages are
/// ordered by (arrival tick, global sequence number), and each directed
/// link (from → to) is FIFO — a later message never overtakes an earlier
/// one on the same link, exactly like a TCP connection. The relocation
/// protocol's drain markers rely on that FIFO property.
///
/// Single-threaded: the simulator steps every node on one thread, and
/// every send enters the delivery queue directly.
class Network : public Transport {
 public:
  struct Config {
    /// Per-message propagation + protocol latency in ticks (virtual ms).
    Tick latency_ticks = 1;
    /// Link throughput in bytes per tick. 1 Gb/s ≈ 125 bytes per virtual
    /// microsecond ≈ 125000 bytes per virtual millisecond.
    int64_t bytes_per_tick = 125000;
  };

  /// Per-message delivery callback; `now` is the delivery tick. The
  /// message is mutable so handlers on the data-plane hot path can move
  /// the payload out instead of copying it; it is dead after the call.
  using Handler = Transport::Handler;

  /// Aggregate traffic statistics.
  struct Stats {
    int64_t messages_sent = 0;
    int64_t bytes_sent = 0;
    /// Bytes sent in kStateTransfer messages only (relocation traffic).
    int64_t state_transfer_bytes = 0;
  };

  explicit Network(const Config& config) : config_(config) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the delivery handler for `node` (>= 0; ids index a table,
  /// so keep them dense). Must be called before any message addressed to
  /// `node` is delivered. Re-registering replaces the handler.
  void RegisterNode(NodeId node, Handler handler) override;

  /// Chaos hooks (sim/). `extra_delay` adds ticks to a message's arrival
  /// *before* the link-FIFO clamp — jitter is delay-only, so in-order
  /// delivery per link (which the drain markers rely on) is preserved
  /// while cross-link reordering emerges naturally. `duplicate` delivers
  /// the message a second time one tick later (a deliberate protocol
  /// violation, used to prove the harness catches one). Both hooks run
  /// once per Send, in send order.
  void SetFaultHooks(std::function<Tick(const Message&)> extra_delay,
                     std::function<bool(const Message&)> duplicate);

  /// Enqueues `message` for delivery. `message.from/to` must be set (>= 0)
  /// and `to` must name a registered node by delivery time.
  void Send(Message message, Tick now) override;

  /// Delivers every message whose arrival tick is <= `now` in one global
  /// (arrival, sequence) order. Handlers may send further messages;
  /// those are delivered too if they also arrive by `now`.
  void DeliverUntil(Tick now);

  /// Delivers every message whose arrival tick is <= `now` in waves, the
  /// simulator's schedule. Each wave takes every due message, groups
  /// them by destination in ascending node id, and runs each
  /// destination's handler over its messages in (arrival, sequence)
  /// order. Messages that handlers send join a later wave; waves repeat
  /// until nothing more is due by `now`. Because every node sends as
  /// itself (`from` is its own id), each wave enqueues its sends in
  /// (source node id, send order) order.
  void DeliverWaves(Tick now);

  /// True when no message is queued.
  bool idle() const { return heap_.empty(); }

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  /// Heap entry of one in-flight message: its delivery key and the slot
  /// in `slots_` where the message waits. Heap and wave shuffles move
  /// these 24 bytes, never the message.
  struct InFlight {
    Tick arrival;
    int64_t sequence;  // global tie-breaker for determinism
    NodeId to;
    int32_t slot;
  };
  struct LaterArrival {
    bool operator()(const InFlight& a, const InFlight& b) const {
      // std::*_heap build max-heaps; invert for earliest-first.
      if (a.arrival != b.arrival) return a.arrival > b.arrival;
      return a.sequence > b.sequence;
    }
  };
  /// Parks `message` in a free slot (or a new one) and heap-orders its key.
  void Enqueue(Message&& message, Tick arrival);
  /// Pops the earliest in-flight key off the heap.
  InFlight PopEarliest();
  /// Moves the message out of `item`'s slot, frees the slot and runs the
  /// destination's handler; the handler may Send, which may grow `slots_`.
  void Deliver(const InFlight& item);
  /// Last scheduled arrival on the directed link (from, to), for FIFO
  /// enforcement; kNoArrival until the link carries a message.
  Tick& LinkLastArrival(NodeId from, NodeId to);

  static constexpr Tick kNoArrival = std::numeric_limits<Tick>::min();

  Config config_;
  /// Delivery handlers indexed by NodeId (node ids are dense); an empty
  /// function marks an unregistered id.
  std::vector<Handler> handlers_;
  std::function<Tick(const Message&)> fault_extra_delay_;
  std::function<bool(const Message&)> fault_duplicate_;
  /// In-flight messages by slot, and the slots free for reuse.
  std::vector<Message> slots_;
  std::vector<int32_t> free_slots_;
  /// Min-heap over (arrival, sequence), via std::push_heap/std::pop_heap.
  std::vector<InFlight> heap_;
  /// DeliverWaves' current wave, kept to reuse its capacity.
  std::vector<InFlight> wave_;
  /// `link_last_arrival_[from][to]`, grown on first use of a link.
  std::vector<std::vector<Tick>> link_last_arrival_;
  int64_t next_sequence_ = 0;
  Stats stats_;
};

}  // namespace dcape

#endif  // DCAPE_NET_NETWORK_H_
