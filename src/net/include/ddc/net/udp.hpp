// UDP datagram transport — the first deployable backend.
//
// One process per shard; the cluster is a static peer table of
// host:port pairs (sensor deployments are configured, not discovered).
// The socket is non-blocking: send() emits or counts a failure,
// receive() drains the kernel buffer until it is empty. Incoming
// datagrams are attributed to peers by source address; datagrams from
// addresses outside the table are counted and dropped.
//
// The transport keeps no liveness state: deciding that a peer is gone
// is the shard engine's job (ShardEngineOptions::max_exchange_polls).
// probe() sends a hello that the peer's receive() answers with a
// probe-ack, so a start barrier can hear peers that have nothing to
// send yet. Probe and probe-ack frames (wire::FrameKind) are handled
// inside the transport and count in stats() like any other frame;
// receive() surfaces only gossip, batch and batch_ack frames, still
// wrapped in their full envelope.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <ddc/net/transport.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::net {

/// One row of the static peer table. `host` must be an IPv4 dotted quad
/// or the literal "localhost".
struct UdpPeer {
  std::string host;
  std::uint16_t port = 0;
};

struct UdpOptions {
  /// Test hook: probability of dropping each incoming datagram before
  /// it is even parsed, simulating channel loss on a lossless loopback
  /// interface. Applies to every frame kind, probes included.
  double inject_receive_loss = 0.0;
  /// Seed of the injected-loss stream.
  std::uint64_t loss_seed = 1;
};

/// Non-blocking UDP endpoint. Throws ddc::ConfigError when the socket
/// cannot be created or bound.
class UdpTransport final : public Transport {
 public:
  /// Binds peers[self]'s address. A port of 0 in the own entry binds an
  /// ephemeral port (see local_port()); peer entries with port 0 must be
  /// fixed up via set_peer_address before sending.
  UdpTransport(PeerId self, std::vector<UdpPeer> peers,
               UdpOptions options = {});
  ~UdpTransport() override;

  [[nodiscard]] PeerId self() const override { return self_; }
  [[nodiscard]] std::size_t num_peers() const override {
    return peers_.size();
  }
  void send(PeerId to, const std::vector<std::byte>& frame) override;
  [[nodiscard]] std::vector<Packet> receive() override;
  [[nodiscard]] const LinkStats& stats(PeerId peer) const override;

  /// Sends `to` a hello (a probe frame); its receive() answers with a
  /// probe-ack, which counts in stats(to).frames_received here.
  void probe(PeerId to);

  /// The port the socket actually bound (== configured port unless 0).
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }

  /// Rebinds the table entry for `peer` (two-phase setup with ephemeral
  /// ports).
  void set_peer_address(PeerId peer, const std::string& host,
                        std::uint16_t port);

  /// Datagrams from addresses outside the peer table (dropped).
  [[nodiscard]] std::uint64_t unknown_source_frames() const noexcept {
    return unknown_source_frames_;
  }
  /// Datagrams that failed envelope parsing (dropped).
  [[nodiscard]] std::uint64_t malformed_frames() const noexcept {
    return malformed_frames_;
  }
  /// Datagrams dropped by the inject_receive_loss hook.
  [[nodiscard]] std::uint64_t injected_losses() const noexcept {
    return injected_losses_;
  }

 private:
  void bind_socket(const UdpPeer& own);
  void update_peer_key(PeerId peer);

  PeerId self_;
  std::vector<UdpPeer> peers_;
  UdpOptions options_;
  stats::Rng loss_rng_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::vector<std::uint64_t> addr_keys_;  // packed ip:port per peer
  std::vector<LinkStats> stats_;
  // Source-address lookup only (find/insert/erase), never iterated, so
  // hash order cannot reach any output. ddcverify: allow(unordered-iter)
  std::unordered_map<std::uint64_t, PeerId> by_address_;
  std::uint64_t probe_seq_ = 0;
  std::uint64_t unknown_source_frames_ = 0;
  std::uint64_t malformed_frames_ = 0;
  std::uint64_t injected_losses_ = 0;
};

}  // namespace ddc::net
