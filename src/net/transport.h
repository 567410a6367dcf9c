#ifndef DCAPE_NET_TRANSPORT_H_
#define DCAPE_NET_TRANSPORT_H_

#include <functional>

#include "common/ids.h"
#include "common/virtual_clock.h"
#include "net/message.h"

namespace dcape {

/// The cluster interconnect seam.
///
/// Every node (query engine, split host, coordinator, generator) talks to
/// the cluster exclusively through this interface: register a delivery
/// handler once at wiring time, then Send messages. Two implementations
/// exist:
///
///   * net::Network — the deterministic virtual-clock simulator transport
///     (delivery waves, latency/bandwidth model),
///   * rt::SpscTransport — the free-running realtime transport (one
///     bounded lock-free SPSC ring per directed link, blocking
///     backpressure, wall-clock delivery).
///
/// Contract both implementations honor, because the relocation protocol
/// depends on it: each directed link (from -> to) is FIFO — a later
/// message never overtakes an earlier one on the same link. The drain
/// markers of the 8-step relocation protocol ride the split-host ->
/// engine link behind the tuple traffic and prove, on arrival, that no
/// pre-pause tuple is still in flight.
///
/// Threading: RegisterNode is wiring-time only (before any Send). Send
/// is safe to call concurrently so long as each source node is driven by
/// at most one thread at a time — the realtime driver runs one thread
/// per node; the simulator steps every node on one thread.
class Transport {
 public:
  /// Per-message delivery callback; `now` is the delivery time in the
  /// transport's time domain (virtual tick / wall millisecond). The
  /// message is mutable so handlers on the data-plane hot path can move
  /// the payload out instead of copying it; it is dead after the call.
  using Handler = std::function<void(Tick now, Message& message)>;

  virtual ~Transport() = default;

  /// Registers the delivery handler for `node`. Must be called before
  /// any message addressed to `node` is delivered. Re-registering
  /// replaces the handler.
  virtual void RegisterNode(NodeId node, Handler handler) = 0;

  /// Enqueues `message` for delivery. `message.from/to` must be set and
  /// `to` must name a registered node by delivery time. May block (the
  /// realtime transport applies backpressure when the link is full).
  virtual void Send(Message message, Tick now) = 0;
};

}  // namespace dcape

#endif  // DCAPE_NET_TRANSPORT_H_
