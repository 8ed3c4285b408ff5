// LoopbackNetwork mechanics and its determinism contract: for a fixed
// seed, two runs produce bit-identical delivery logs.
#include <ddc/net/loopback.hpp>

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ddc::net {
namespace {

std::vector<std::byte> frame_of(const std::string& text) {
  std::vector<std::byte> bytes(text.size());
  std::memcpy(bytes.data(), text.data(), text.size());
  return bytes;
}

std::string text_of(const std::vector<std::byte>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

TEST(Loopback, DeliversOnNextAdvance) {
  LoopbackNetwork net(2);
  net.endpoint(0).send(1, frame_of("hello"));
  EXPECT_TRUE(net.endpoint(1).receive().empty());
  net.advance();
  const auto packets = net.endpoint(1).receive();
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0].from, 0u);
  EXPECT_EQ(text_of(packets[0].bytes), "hello");
  // Drained: a second receive is empty.
  EXPECT_TRUE(net.endpoint(1).receive().empty());
}

TEST(Loopback, SameTickFramesDeliverInSubmissionOrder) {
  LoopbackNetwork net(3);
  net.endpoint(0).send(2, frame_of("first"));
  net.endpoint(1).send(2, frame_of("second"));
  net.endpoint(0).send(2, frame_of("third"));
  net.advance();
  const auto packets = net.endpoint(2).receive();
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(text_of(packets[0].bytes), "first");
  EXPECT_EQ(text_of(packets[1].bytes), "second");
  EXPECT_EQ(text_of(packets[2].bytes), "third");
}

TEST(Loopback, CountsPerPeerTraffic) {
  LoopbackNetwork net(2);
  net.endpoint(0).send(1, frame_of("abcd"));
  net.advance();
  (void)net.endpoint(1).receive();
  EXPECT_EQ(net.endpoint(0).stats(1).frames_sent, 1u);
  EXPECT_EQ(net.endpoint(0).stats(1).bytes_sent, 4u);
  EXPECT_EQ(net.endpoint(1).stats(0).frames_received, 1u);
  EXPECT_EQ(net.endpoint(1).stats(0).bytes_received, 4u);
}

TEST(Loopback, TotalLossDropsEverything) {
  LoopbackOptions options;
  options.loss_probability = 1.0;
  LoopbackNetwork net(2, options);
  for (int i = 0; i < 20; ++i) net.endpoint(0).send(1, frame_of("x"));
  net.advance();
  EXPECT_TRUE(net.endpoint(1).receive().empty());
  EXPECT_EQ(net.frames_dropped(), 20u);
}

TEST(Loopback, PartialLossDropsSomeFramesOnly) {
  LoopbackOptions options;
  options.loss_probability = 0.3;
  options.seed = 7;
  LoopbackNetwork net(2, options);
  const int sent = 500;
  for (int i = 0; i < sent; ++i) net.endpoint(0).send(1, frame_of("x"));
  net.advance();
  const auto received = net.endpoint(1).receive().size();
  EXPECT_EQ(received + net.frames_dropped(), static_cast<std::size_t>(sent));
  EXPECT_GT(received, 0u);
  EXPECT_GT(net.frames_dropped(), 0u);
  // ~30% loss; allow a generous band around the expectation.
  EXPECT_NEAR(static_cast<double>(net.frames_dropped()) / sent, 0.3, 0.15);
}

TEST(Loopback, DelayedFramesStayInFlightUntilDue) {
  LoopbackOptions options;
  options.min_delay_ticks = 2;
  options.max_delay_ticks = 2;
  LoopbackNetwork net(2, options);
  net.endpoint(0).send(1, frame_of("late"));
  net.advance();
  EXPECT_TRUE(net.endpoint(1).receive().empty());
  EXPECT_EQ(net.frames_in_flight(), 1u);
  net.advance();
  EXPECT_TRUE(net.endpoint(1).receive().empty());
  net.advance();
  EXPECT_EQ(net.endpoint(1).receive().size(), 1u);
  EXPECT_EQ(net.frames_in_flight(), 0u);
}

/// One full run's delivery log under loss and delay: every packet every
/// endpoint receives, in order, as (receiver, sender, bytes) tuples.
std::string delivery_log(std::uint64_t seed) {
  LoopbackOptions options;
  options.seed = seed;
  options.loss_probability = 0.2;
  options.min_delay_ticks = 0;
  options.max_delay_ticks = 3;
  LoopbackNetwork net(4, options);
  std::string log;
  for (int step = 0; step < 50; ++step) {
    for (PeerId from = 0; from < 4; ++from) {
      const auto to = static_cast<PeerId>((from + 1 + step % 3) % 4);
      net.endpoint(from).send(
          to, frame_of("m" + std::to_string(step) + "." +
                       std::to_string(from)));
    }
    net.advance();
    for (PeerId at = 0; at < 4; ++at) {
      for (const auto& packet : net.endpoint(at).receive()) {
        log += std::to_string(at) + "<" + std::to_string(packet.from) + ":" +
               text_of(packet.bytes) + ";";
      }
    }
  }
  return log;
}

TEST(Loopback, BitIdenticalAcrossRunsForFixedSeed) {
  const std::string first = delivery_log(1234);
  const std::string second = delivery_log(1234);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Loopback, DifferentSeedsProduceDifferentSchedules) {
  EXPECT_NE(delivery_log(1234), delivery_log(4321));
}

}  // namespace
}  // namespace ddc::net
