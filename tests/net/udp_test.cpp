// UdpTransport over real localhost sockets: frame exchange, counters,
// resilience to garbage, and hellos answered inside receive(). Tests
// bind ephemeral ports (port 0) and wire the table up afterwards, so
// parallel test runs never collide.
#include <ddc/net/udp.hpp>

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include <ddc/common/error.hpp>
#include <ddc/wire/framing.hpp>

namespace ddc::net {
namespace {

using namespace std::chrono_literals;

/// Two endpoints on ephemeral ports, each knowing the other's address.
struct Pair {
  UdpTransport a;
  UdpTransport b;

  explicit Pair(UdpOptions options = {})
      : a(0, {{"127.0.0.1", 0}, {"127.0.0.1", 0}}, options),
        b(1, {{"127.0.0.1", 0}, {"127.0.0.1", 0}}, options) {
    a.set_peer_address(1, "127.0.0.1", b.local_port());
    b.set_peer_address(0, "127.0.0.1", a.local_port());
  }
};

/// Polls `transport` until a packet arrives or ~2s elapse.
std::vector<Packet> receive_within(UdpTransport& transport,
                                   std::chrono::milliseconds limit = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    auto packets = transport.receive();
    if (!packets.empty()) return packets;
    std::this_thread::sleep_for(1ms);
  }
  return {};
}

std::vector<std::byte> gossip_frame(std::uint32_t sender, std::uint64_t seq) {
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2},
                                       std::byte{3}};
  return wire::encode_frame(wire::FrameKind::gossip, sender, seq, payload);
}

TEST(Udp, BindsEphemeralPort) {
  UdpTransport t(0, {{"127.0.0.1", 0}, {"127.0.0.1", 1}});
  EXPECT_NE(t.local_port(), 0);
  EXPECT_EQ(t.self(), 0u);
  EXPECT_EQ(t.num_peers(), 2u);
}

TEST(Udp, GossipFrameTravelsBetweenProcessesWorthOfSockets) {
  Pair pair;
  pair.a.send(1, gossip_frame(0, 1));
  const auto packets = receive_within(pair.b);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].from, 0u);
  const wire::Frame frame = wire::decode_frame(packets[0].bytes);
  EXPECT_EQ(frame.kind, wire::FrameKind::gossip);
  EXPECT_EQ(frame.sender, 0u);
  EXPECT_EQ(frame.seq, 1u);
  EXPECT_EQ(pair.a.stats(1).frames_sent, 1u);
  EXPECT_EQ(pair.b.stats(0).frames_received, 1u);
}

TEST(Udp, ReceiveDrainsBacklogInOneCall) {
  Pair pair;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    pair.a.send(1, gossip_frame(0, seq));
  }
  // Give the kernel a moment to queue all five datagrams.
  std::vector<Packet> packets;
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (packets.size() < 5 && std::chrono::steady_clock::now() < deadline) {
    auto more = pair.b.receive();
    packets.insert(packets.end(), more.begin(), more.end());
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(packets.size(), 5u);
}

TEST(Udp, MalformedDatagramsCountedAndDropped) {
  Pair pair;
  pair.a.send(1, {std::byte{0xba}, std::byte{0xad}});
  pair.a.send(1, gossip_frame(0, 1));
  const auto packets = receive_within(pair.b);
  ASSERT_EQ(packets.size(), 1u);  // only the valid frame surfaces
  EXPECT_EQ(pair.b.malformed_frames(), 1u);
}

TEST(Udp, ProbesAnsweredInvisibly) {
  Pair pair;
  pair.a.probe(1);
  EXPECT_EQ(pair.a.stats(1).frames_sent, 1u);
  // The probe is consumed inside b's transport; nothing surfaces.
  EXPECT_TRUE(receive_within(pair.b, 200ms).empty());
  // ...but a answered it got an ack (also invisible) and counted traffic.
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (pair.a.stats(1).frames_received == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    (void)pair.a.receive();
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(pair.a.stats(1).frames_received, 1u);
}

TEST(Udp, InjectedReceiveLossDropsFrames) {
  UdpOptions lossy;
  lossy.inject_receive_loss = 1.0;
  UdpTransport a(0, {{"127.0.0.1", 0}, {"127.0.0.1", 0}});
  UdpTransport b(1, {{"127.0.0.1", 0}, {"127.0.0.1", 0}}, lossy);
  a.set_peer_address(1, "127.0.0.1", b.local_port());
  b.set_peer_address(0, "127.0.0.1", a.local_port());
  a.send(1, gossip_frame(0, 1));
  EXPECT_TRUE(receive_within(b, 300ms).empty());
  EXPECT_EQ(b.injected_losses(), 1u);
}

TEST(Udp, RejectsOversizedFrame) {
  UdpTransport t(0, {{"127.0.0.1", 0}, {"127.0.0.1", 1}});
  const std::vector<std::byte> huge(128 * 1024);
  EXPECT_THROW(t.send(1, huge), ContractViolation);
}

TEST(Udp, UnknownSourceCountedAndDropped) {
  Pair pair;
  // A third socket outside both peer tables sends b a valid frame.
  UdpTransport outsider(0, {{"127.0.0.1", 0}, {"127.0.0.1", 0}});
  outsider.set_peer_address(1, "127.0.0.1", pair.b.local_port());
  outsider.send(1, gossip_frame(9, 1));
  EXPECT_TRUE(receive_within(pair.b, 300ms).empty());
  EXPECT_EQ(pair.b.unknown_source_frames(), 1u);
}

TEST(Udp, InvalidHostRejected) {
  EXPECT_THROW(UdpTransport(0, {{"not-an-address", 0}, {"127.0.0.1", 1}}),
               ConfigError);
}

}  // namespace
}  // namespace ddc::net
