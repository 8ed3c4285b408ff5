#include <ddc/net/loopback.hpp>

#include <utility>

#include <ddc/common/assert.hpp>

namespace ddc::net {

LoopbackNetwork::LoopbackNetwork(std::size_t num_peers,
                                 LoopbackOptions options)
    : options_(options),
      channel_rng_(stats::Rng::derive(options.seed, 0x4c4f4f50ULL)) {
  DDC_EXPECTS(num_peers >= 1);
  DDC_EXPECTS(options_.loss_probability >= 0.0 &&
              options_.loss_probability <= 1.0);
  DDC_EXPECTS(options_.min_delay_ticks <= options_.max_delay_ticks);
  endpoints_.reserve(num_peers);
  for (std::size_t i = 0; i < num_peers; ++i) {
    endpoints_.emplace_back(new LoopbackTransport(
        *this, static_cast<PeerId>(i), num_peers));
  }
}

LoopbackNetwork::~LoopbackNetwork() = default;

std::size_t LoopbackNetwork::num_peers() const noexcept {
  return endpoints_.size();
}

LoopbackTransport& LoopbackNetwork::endpoint(PeerId id) {
  DDC_EXPECTS(id < endpoints_.size());
  return *endpoints_[id];
}

void LoopbackNetwork::submit(PeerId from, PeerId to,
                             const std::vector<std::byte>& frame) {
  DDC_EXPECTS(to < endpoints_.size());
  if (options_.loss_probability > 0.0 &&
      channel_rng_.bernoulli(options_.loss_probability)) {
    ++dropped_;
    return;
  }
  std::size_t delay = options_.min_delay_ticks;
  if (options_.max_delay_ticks > options_.min_delay_ticks) {
    delay += channel_rng_.uniform_index(options_.max_delay_ticks -
                                        options_.min_delay_ticks + 1);
  }
  // Due on the NEXT advance at the earliest: tick_ + 1 + delay.
  in_flight_.push_back({tick_ + 1 + delay, from, to, frame});
}

void LoopbackNetwork::advance() {
  ++tick_;
  // Stable single pass: due frames deliver in submission order, the rest
  // keep their relative order for later ticks.
  std::deque<InFlight> still_in_flight;
  for (auto& f : in_flight_) {
    if (f.due_tick <= tick_) {
      endpoints_[f.to]->deliver(f.from, std::move(f.bytes));
    } else {
      still_in_flight.push_back(std::move(f));
    }
  }
  in_flight_ = std::move(still_in_flight);
}

std::size_t LoopbackTransport::num_peers() const {
  return network_.num_peers();
}

void LoopbackTransport::send(PeerId to, const std::vector<std::byte>& frame) {
  DDC_EXPECTS(to < network_.num_peers());
  LinkStats& s = stats_[to];
  ++s.frames_sent;
  s.bytes_sent += frame.size();
  network_.submit(self_, to, frame);
}

std::vector<Packet> LoopbackTransport::receive() {
  std::vector<Packet> out;
  out.swap(rx_queue_);
  return out;
}

const LinkStats& LoopbackTransport::stats(PeerId peer) const {
  DDC_EXPECTS(peer < stats_.size());
  return stats_[peer];
}

void LoopbackTransport::deliver(PeerId from, std::vector<std::byte> bytes) {
  LinkStats& s = stats_[from];
  ++s.frames_received;
  s.bytes_received += bytes.size();
  rx_queue_.push_back({from, std::move(bytes)});
}

}  // namespace ddc::net
