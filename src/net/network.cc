#include "net/network.h"

#include <algorithm>

#include "common/check.h"

namespace dcape {

void Network::RegisterNode(NodeId node, Handler handler) {
  handlers_[node] = std::move(handler);
}

void Network::SetFaultHooks(std::function<Tick(const Message&)> extra_delay,
                            std::function<bool(const Message&)> duplicate) {
  fault_extra_delay_ = std::move(extra_delay);
  fault_duplicate_ = std::move(duplicate);
}

void Network::Send(Message message, Tick now) {
  DCAPE_CHECK_NE(message.from, kInvalidNode);
  DCAPE_CHECK_NE(message.to, kInvalidNode);
  Enqueue(std::move(message), now);
}

void Network::Enqueue(Message message, Tick now) {
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
  const std::pair<NodeId, NodeId> link{message.from, message.to};
  auto it = link_last_arrival_.find(link);
  if (it != link_last_arrival_.end()) {
    arrival = std::max(arrival, it->second);
  }
  link_last_arrival_[link] = arrival;

  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  if (message.type == MessageType::kStateTransfer) {
    stats_.state_transfer_bytes += bytes;
  }

  const bool duplicate = fault_duplicate_ && fault_duplicate_(message);
  Message copy;
  if (duplicate) copy = message;
  heap_.push_back(InFlight{arrival, next_sequence_++, std::move(message)});
  std::push_heap(heap_.begin(), heap_.end(), LaterArrival{});
  if (duplicate) {
    const Tick dup_arrival = arrival + 1;
    link_last_arrival_[link] = dup_arrival;
    stats_.messages_sent += 1;
    stats_.bytes_sent += bytes;
    heap_.push_back(InFlight{dup_arrival, next_sequence_++, std::move(copy)});
    std::push_heap(heap_.begin(), heap_.end(), LaterArrival{});
  }
}

Network::InFlight Network::PopEarliest() {
  std::pop_heap(heap_.begin(), heap_.end(), LaterArrival{});
  InFlight item = std::move(heap_.back());
  heap_.pop_back();
  return item;
}

void Network::DeliverUntil(Tick now) {
  while (!heap_.empty() && heap_.front().arrival <= now) {
    InFlight item = PopEarliest();
    auto it = handlers_.find(item.message.to);
    DCAPE_CHECK(it != handlers_.end());
    it->second(item.arrival, item.message);
  }
}

void Network::DeliverWaves(Tick now) {
  std::vector<InFlight> wave;
  while (!heap_.empty() && heap_.front().arrival <= now) {
    wave.clear();
    while (!heap_.empty() && heap_.front().arrival <= now) {
      wave.push_back(PopEarliest());
    }
    // The wave is in (arrival, sequence) order; a stable sort by
    // destination keeps that order within each destination's messages.
    // Sends made below enter the heap and wait for the next wave.
    std::stable_sort(wave.begin(), wave.end(),
                     [](const InFlight& a, const InFlight& b) {
                       return a.message.to < b.message.to;
                     });
    for (InFlight& item : wave) {
      auto it = handlers_.find(item.message.to);
      DCAPE_CHECK(it != handlers_.end());
      it->second(item.arrival, item.message);
    }
  }
}

}  // namespace dcape
