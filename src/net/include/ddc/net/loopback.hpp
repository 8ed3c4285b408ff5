// Deterministic in-process transport.
//
// A LoopbackNetwork is a little switch fabric: it owns one
// LoopbackTransport endpoint per peer and a queue of in-flight frames.
// Time is a tick counter advanced explicitly by the driver. Every
// environmental decision — whether a frame is lost, how many ticks it
// spends in flight — comes from a stream seeded in the options, and
// delivery order is fixed by (due tick, submission order), so a run is
// bit-identical across executions for a fixed seed. That determinism
// contract is what lets the shard exchange be tested with the same
// rigor as the simulator (tests/net/loopback_test).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include <ddc/net/transport.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::net {

/// Channel model of a loopback fabric.
struct LoopbackOptions {
  /// Seed of the fabric's loss/delay stream.
  std::uint64_t seed = 1;
  /// Probability that a submitted frame is silently dropped. Drawn at
  /// submission time (one draw per frame, in submission order) only when
  /// nonzero, so loss-free runs consume no randomness.
  double loss_probability = 0.0;
  /// Frames spend uniform[min_delay_ticks, max_delay_ticks] whole ticks
  /// in flight. 0/0 delivers on the next advance(). The delay draw
  /// happens at submission time (after the loss draw) only when the
  /// range is nontrivial.
  std::size_t min_delay_ticks = 0;
  std::size_t max_delay_ticks = 0;
};

class LoopbackTransport;

/// The shared fabric. Create it with the cluster size, hand each node
/// `endpoint(i)`, and call `advance()` once per time step to move due
/// frames into receive queues.
class LoopbackNetwork {
 public:
  explicit LoopbackNetwork(std::size_t num_peers, LoopbackOptions options = {});
  ~LoopbackNetwork();

  LoopbackNetwork(const LoopbackNetwork&) = delete;
  LoopbackNetwork& operator=(const LoopbackNetwork&) = delete;

  [[nodiscard]] std::size_t num_peers() const noexcept;

  /// The endpoint of peer `id`. Borrowed; valid as long as the network.
  [[nodiscard]] LoopbackTransport& endpoint(PeerId id);

  /// Advances time by one tick and delivers every frame that is due.
  void advance();

  [[nodiscard]] std::size_t tick() const noexcept { return tick_; }
  [[nodiscard]] std::size_t frames_in_flight() const noexcept {
    return in_flight_.size();
  }
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return dropped_;
  }

 private:
  friend class LoopbackTransport;

  struct InFlight {
    std::size_t due_tick;
    PeerId from;
    PeerId to;
    std::vector<std::byte> bytes;
  };

  /// Called by endpoints' send(). Applies the loss and delay draws.
  void submit(PeerId from, PeerId to, const std::vector<std::byte>& frame);

  LoopbackOptions options_;
  stats::Rng channel_rng_;
  std::vector<std::unique_ptr<LoopbackTransport>> endpoints_;
  /// Kept in submission order; advance() scans it stably, so two frames
  /// due the same tick deliver in the order they were sent.
  std::deque<InFlight> in_flight_;
  std::size_t tick_ = 0;
  std::uint64_t dropped_ = 0;
};

/// One peer's endpoint on a LoopbackNetwork.
class LoopbackTransport final : public Transport {
 public:
  [[nodiscard]] PeerId self() const override { return self_; }
  [[nodiscard]] std::size_t num_peers() const override;
  void send(PeerId to, const std::vector<std::byte>& frame) override;
  [[nodiscard]] std::vector<Packet> receive() override;
  [[nodiscard]] const LinkStats& stats(PeerId peer) const override;

 private:
  friend class LoopbackNetwork;
  LoopbackTransport(LoopbackNetwork& network, PeerId self,
                    std::size_t num_peers)
      : network_(network), self_(self), stats_(num_peers) {}

  /// Called by the network when a frame reaches this endpoint.
  void deliver(PeerId from, std::vector<std::byte> bytes);

  LoopbackNetwork& network_;
  PeerId self_;
  std::vector<Packet> rx_queue_;
  std::vector<LinkStats> stats_;
};

}  // namespace ddc::net
