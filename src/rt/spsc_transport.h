#ifndef DCAPE_RT_SPSC_TRANSPORT_H_
#define DCAPE_RT_SPSC_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/mutex.h"
#include "common/virtual_clock.h"
#include "net/message.h"
#include "net/transport.h"
#include "rt/spsc_queue.h"

namespace dcape {
namespace rt {

/// Default ring capacity (messages) per directed link: the one default
/// behind SpscTransport::Config, RealtimeOptions and
/// `dcape_run --rt-queue-capacity`. It is sized together with the
/// generator's batch cap (kMaxTicksPerEmit = 256, rt/realtime_driver.cc):
/// a data-plane message carries at most that many tuples, so a link
/// holds at most 64 × 256 = 16,384 tuples in flight.
inline constexpr size_t kDefaultLinkCapacity = 64;

/// The realtime cluster interconnect: one bounded lock-free SPSC ring
/// per directed link (from -> to), created lazily on first send.
///
/// Why SPSC works here: the realtime driver runs exactly one thread per
/// node, so each directed link has exactly one producer (the sending
/// node's thread) and one consumer (the receiving node's thread). Each
/// link being its own FIFO ring preserves the per-link ordering contract
/// the relocation protocol's drain markers rely on — a marker sent on
/// the split-host -> engine link after the tuple traffic is delivered
/// after it, exactly as on the simulated network.
///
/// Backpressure: Send spins briefly on a full ring, then parks on the
/// link's producer gate until the consumer pops (bounded-spin-then-park).
/// The data-plane graph (generator -> split hosts -> engines -> sink) is
/// acyclic and the sink never sends, so blocking propagates upstream to
/// the generator instead of deadlocking; control traffic (stats,
/// relocation protocol) is orders of magnitude below link capacity. A
/// watchdog CHECK fires if a producer stays parked far beyond any sane
/// stall, turning a would-be silent deadlock into a loud failure.
///
/// Consumers poll their inbound links round-robin (Poll) and park on a
/// per-node gate (WaitForInbound) when idle; producers ring that gate
/// after every successful push. Waits are bounded so node loops keep
/// servicing their periodic timers even on a silent link.
class SpscTransport : public Transport {
 public:
  struct Config {
    /// Ring capacity (messages) per directed link; rounded up to a power
    /// of two. Sized for the data plane — control links use a tiny
    /// fraction of it.
    size_t link_capacity = kDefaultLinkCapacity;
    /// TryPush attempts before a full-link producer parks. Kept modest:
    /// on an oversubscribed host, burning the consumer's timeslice in a
    /// spin loop only delays the pop that would free a slot.
    int spin_iters = 256;
    /// A producer parked longer than this aborts the run (deadlock
    /// watchdog).
    int64_t park_abort_micros = 120 * 1000 * 1000;
  };

  struct Stats {
    int64_t messages_sent = 0;
    int64_t bytes_sent = 0;
    /// Bytes in kStateTransfer messages (relocation traffic).
    int64_t state_transfer_bytes = 0;
    /// Times a producer exhausted its spin budget and parked.
    int64_t backpressure_parks = 0;
  };

  /// `num_nodes` is the cluster's node-id space (ids 0..num_nodes-1).
  SpscTransport(int num_nodes, const Config& config);
  ~SpscTransport() override;

  SpscTransport(const SpscTransport&) = delete;
  SpscTransport& operator=(const SpscTransport&) = delete;

  /// Wiring-time only (before threads start).
  void RegisterNode(NodeId node, Handler handler) override;

  /// Called by node threads; safe because each `message.from` is owned
  /// by exactly one thread. Blocks (spin-then-park) while the link is
  /// full.
  void Send(Message message, Tick now) override;

  /// Drains up to `max_messages` from `node`'s inbound links round-robin
  /// and invokes the registered handler with delivery time `now`.
  /// Returns the number delivered. Must be called only from `node`'s
  /// thread.
  int Poll(NodeId node, Tick now, int max_messages = 128);

  /// True when every inbound link of `node` is empty (exact from the
  /// consumer's side).
  bool InboundEmpty(NodeId node) const;

  /// Parks `node`'s thread until a producer pushes to one of its links
  /// or `micros` elapses — bounded so periodic timers keep firing.
  void WaitForInbound(NodeId node, int64_t micros);

  /// Messages sent but not yet handed to a handler. 0 together with
  /// per-node idleness means the pipeline is quiescent.
  int64_t Outstanding() const {
    // Acquire both so the caller's quiescence decision sees the payload
    // effects of everything counted.
    return sent_.load(std::memory_order_acquire) -
           delivered_.load(std::memory_order_acquire);
  }

  /// Aggregated traffic stats. Only exact after all node threads have
  /// been joined.
  Stats TotalStats() const;

 private:
  /// One directed link. Owned pointers are installed lazily by the
  /// producing thread and released in the destructor.
  struct Link {
    explicit Link(size_t capacity) : ring(capacity) {}
    SpscQueue<Message> ring;
    /// Producer park state (see Send). The flag is seq_cst on both
    /// sides: the producer stores it *before* re-checking the ring, the
    /// consumer loads it *after* popping — the Dekker pattern that makes
    /// a missed wakeup impossible.
    std::atomic<bool> producer_parked{false};
    Mutex mu;
    CondVar cv;
  };

  /// Per-consumer wake gate shared by all of a node's inbound links.
  struct Gate {
    std::atomic<bool> waiting{false};
    Mutex mu;
    CondVar cv;
  };

  /// Per-producer traffic counters (single-writer; folded by
  /// TotalStats after join).
  struct alignas(64) ProducerStats {
    int64_t messages_sent = 0;
    int64_t bytes_sent = 0;
    int64_t state_transfer_bytes = 0;
    int64_t backpressure_parks = 0;
  };

  Link* LinkFor(NodeId from, NodeId to);

  const int num_nodes_;
  const Config config_;
  /// links_[from * num_nodes_ + to], installed lazily by the `from`
  /// thread (release) and observed by the `to` thread (acquire).
  std::vector<std::atomic<Link*>> links_;
  std::vector<Handler> handlers_;
  std::vector<std::unique_ptr<Gate>> gates_;
  std::vector<ProducerStats> producer_stats_;
  /// Poll's round-robin cursor per consumer (consumer-thread-owned).
  std::vector<int> poll_cursor_;

  alignas(64) std::atomic<int64_t> sent_{0};
  alignas(64) std::atomic<int64_t> delivered_{0};
};

}  // namespace rt
}  // namespace dcape

#endif  // DCAPE_RT_SPSC_TRANSPORT_H_
