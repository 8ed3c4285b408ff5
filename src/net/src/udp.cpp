#include <ddc/net/udp.hpp>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <ddc/common/assert.hpp>
#include <ddc/common/error.hpp>
#include <ddc/wire/framing.hpp>

namespace ddc::net {

namespace {

/// Largest datagram we ever emit or accept. Classification payloads are
/// O(k·d²) — a few hundred bytes — so 64 KiB is generous headroom.
constexpr std::size_t kMaxDatagram = 64 * 1024;

std::uint32_t parse_ipv4(const std::string& host) {
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  in_addr addr{};
  if (inet_pton(AF_INET, resolved.c_str(), &addr) != 1) {
    throw ConfigError("udp: '" + host +
                      "' is not an IPv4 address (use dotted quad)");
  }
  return addr.s_addr;  // network byte order
}

sockaddr_in make_sockaddr(const UdpPeer& peer) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = parse_ipv4(peer.host);
  sa.sin_port = htons(peer.port);
  return sa;
}

std::uint64_t address_key(const sockaddr_in& sa) {
  return (static_cast<std::uint64_t>(sa.sin_addr.s_addr) << 16) |
         ntohs(sa.sin_port);
}

}  // namespace

UdpTransport::UdpTransport(PeerId self, std::vector<UdpPeer> peers,
                           UdpOptions options)
    : self_(self),
      peers_(std::move(peers)),
      options_(options),
      loss_rng_(stats::Rng::derive(options.loss_seed, 0x55445000ULL)),
      addr_keys_(peers_.size()),
      stats_(peers_.size()) {
  DDC_EXPECTS(self_ < peers_.size());
  DDC_EXPECTS(options_.inject_receive_loss >= 0.0 &&
              options_.inject_receive_loss <= 1.0);
  bind_socket(peers_[self_]);
  for (PeerId p = 0; p < peers_.size(); ++p) update_peer_key(p);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::bind_socket(const UdpPeer& own) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    throw ConfigError(std::string("udp: socket() failed: ") +
                      std::strerror(errno));
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw ConfigError(std::string("udp: O_NONBLOCK failed: ") +
                      std::strerror(errno));
  }
  sockaddr_in sa = make_sockaddr(own);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
    throw ConfigError("udp: cannot bind " + own.host + ":" +
                      std::to_string(own.port) + ": " + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw ConfigError(std::string("udp: getsockname failed: ") +
                      std::strerror(errno));
  }
  local_port_ = ntohs(bound.sin_port);
}

void UdpTransport::update_peer_key(PeerId peer) {
  by_address_.erase(addr_keys_[peer]);
  const sockaddr_in sa = make_sockaddr(peers_[peer]);
  addr_keys_[peer] = address_key(sa);
  if (peers_[peer].port != 0) {
    by_address_[addr_keys_[peer]] = peer;
  }
}

void UdpTransport::set_peer_address(PeerId peer, const std::string& host,
                                    std::uint16_t port) {
  DDC_EXPECTS(peer < peers_.size());
  peers_[peer] = UdpPeer{host, port};
  update_peer_key(peer);
}

void UdpTransport::send(PeerId to, const std::vector<std::byte>& frame) {
  DDC_EXPECTS(to < peers_.size());
  DDC_EXPECTS(frame.size() <= kMaxDatagram);
  LinkStats& s = stats_[to];
  const sockaddr_in sa = make_sockaddr(peers_[to]);
  const ssize_t n =
      ::sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (n == static_cast<ssize_t>(frame.size())) {
    ++s.frames_sent;
    s.bytes_sent += frame.size();
  } else {
    // Full send buffer, oversize datagram, unreachable host: all just a
    // lost frame to this best-effort service.
    ++s.send_failures;
  }
}

void UdpTransport::probe(PeerId to) {
  send(to, wire::encode_frame(wire::FrameKind::probe, self_, ++probe_seq_));
}

std::vector<Packet> UdpTransport::receive() {
  std::vector<Packet> out;
  std::vector<std::byte> buffer(kMaxDatagram);
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        ::recvfrom(fd_, buffer.data(), buffer.size(), 0,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) break;  // EWOULDBLOCK (or any error): buffer drained
    if (options_.inject_receive_loss > 0.0 &&
        loss_rng_.bernoulli(options_.inject_receive_loss)) {
      ++injected_losses_;
      continue;
    }
    const auto it = by_address_.find(address_key(src));
    if (it == by_address_.end()) {
      ++unknown_source_frames_;
      continue;
    }
    const PeerId from = it->second;
    // Audited trust boundary: recvfrom wrote exactly n bytes into
    // buffer (the kernel bounds n by buffer.size()); every read past
    // this slice is re-validated by wire::decode_frame.
    // ddcverify: allow(wire-taint)
    const auto datagram_end = buffer.begin() + static_cast<long>(n);
    std::vector<std::byte> bytes(buffer.begin(), datagram_end);
    wire::Frame frame;
    try {
      frame = wire::decode_frame(bytes);
    } catch (const wire::DecodeError&) {
      ++malformed_frames_;
      continue;
    }
    LinkStats& s = stats_[from];
    ++s.frames_received;
    s.bytes_received += bytes.size();
    switch (frame.kind) {
      case wire::FrameKind::probe:
        send(from, wire::encode_frame(wire::FrameKind::probe_ack, self_,
                                      ++probe_seq_));
        break;
      case wire::FrameKind::probe_ack:
        break;  // the frames_received count above is the whole effect
      case wire::FrameKind::gossip:
      case wire::FrameKind::batch:
      case wire::FrameKind::batch_ack:
        out.push_back({from, std::move(bytes)});
        break;
    }
  }
  return out;
}

const LinkStats& UdpTransport::stats(PeerId peer) const {
  DDC_EXPECTS(peer < stats_.size());
  return stats_[peer];
}

}  // namespace ddc::net
