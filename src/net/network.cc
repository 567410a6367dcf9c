#include "net/network.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"

namespace dcape {

void Network::RegisterNode(NodeId node, Handler handler) {
  DCAPE_CHECK_GE(node, 0);
  if (static_cast<size_t>(node) >= handlers_.size()) {
    handlers_.resize(static_cast<size_t>(node) + 1);
  }
  handlers_[static_cast<size_t>(node)] = std::move(handler);
}

void Network::SetFaultHooks(std::function<Tick(const Message&)> extra_delay,
                            std::function<bool(const Message&)> duplicate) {
  fault_extra_delay_ = std::move(extra_delay);
  fault_duplicate_ = std::move(duplicate);
}

Tick& Network::LinkLastArrival(NodeId from, NodeId to) {
  if (static_cast<size_t>(from) >= link_last_arrival_.size()) {
    link_last_arrival_.resize(static_cast<size_t>(from) + 1);
  }
  std::vector<Tick>& row = link_last_arrival_[static_cast<size_t>(from)];
  if (static_cast<size_t>(to) >= row.size()) {
    row.resize(static_cast<size_t>(to) + 1, kNoArrival);
  }
  return row[static_cast<size_t>(to)];
}

void Network::Send(Message message, Tick now) {
  DCAPE_CHECK_GE(message.from, 0);
  DCAPE_CHECK_GE(message.to, 0);
  message.send_time = now;

  const int64_t bytes = message.ByteSize();
  Tick transfer = 0;
  if (config_.bytes_per_tick > 0) {
    transfer = (bytes + config_.bytes_per_tick - 1) / config_.bytes_per_tick;
  }
  Tick arrival = now + config_.latency_ticks + transfer;
  // Injected jitter lands before the FIFO clamp: a jittered message can
  // delay its link's successors but never overtake them.
  if (fault_extra_delay_) arrival += fault_extra_delay_(message);

  // FIFO per directed link: never schedule ahead of an earlier message on
  // the same link (TCP in-order delivery).
  Tick& link_last = LinkLastArrival(message.from, message.to);
  arrival = std::max(arrival, link_last);
  link_last = arrival;

  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  if (message.type == MessageType::kStateTransfer) {
    stats_.state_transfer_bytes += bytes;
  }

  if (fault_duplicate_ && fault_duplicate_(message)) {
    Message copy = message;
    Enqueue(std::move(message), arrival);
    link_last = arrival + 1;
    stats_.messages_sent += 1;
    stats_.bytes_sent += bytes;
    Enqueue(std::move(copy), arrival + 1);
    return;
  }
  Enqueue(std::move(message), arrival);
}

void Network::Enqueue(Message&& message, Tick arrival) {
  const NodeId to = message.to;
  int32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<int32_t>(slots_.size());
    slots_.push_back(std::move(message));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[static_cast<size_t>(slot)] = std::move(message);
  }
  heap_.push_back(InFlight{arrival, next_sequence_++, to, slot});
  std::push_heap(heap_.begin(), heap_.end(), LaterArrival{});
}

Network::InFlight Network::PopEarliest() {
  std::pop_heap(heap_.begin(), heap_.end(), LaterArrival{});
  const InFlight item = heap_.back();
  heap_.pop_back();
  return item;
}

void Network::Deliver(const InFlight& item) {
  DCAPE_CHECK_LT(static_cast<size_t>(item.to), handlers_.size());
  const Handler& handler = handlers_[static_cast<size_t>(item.to)];
  DCAPE_CHECK(handler);
  Message message = std::move(slots_[static_cast<size_t>(item.slot)]);
  free_slots_.push_back(item.slot);
  handler(item.arrival, message);
}

void Network::DeliverUntil(Tick now) {
  while (!heap_.empty() && heap_.front().arrival <= now) {
    Deliver(PopEarliest());
  }
}

void Network::DeliverWaves(Tick now) {
  while (!heap_.empty() && heap_.front().arrival <= now) {
    wave_.clear();
    while (!heap_.empty() && heap_.front().arrival <= now) {
      wave_.push_back(PopEarliest());
    }
    // Sequences are unique, so ordering by (to, arrival, sequence) is
    // exactly a stable sort of the (arrival, sequence)-ordered wave by
    // destination. Sends made below enter the heap and wait for the next
    // wave.
    std::sort(wave_.begin(), wave_.end(),
              [](const InFlight& a, const InFlight& b) {
                return std::tie(a.to, a.arrival, a.sequence) <
                       std::tie(b.to, b.arrival, b.sequence);
              });
    for (const InFlight& item : wave_) Deliver(item);
  }
}

}  // namespace dcape
