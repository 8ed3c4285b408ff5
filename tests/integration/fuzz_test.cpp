// Schedule fuzzing: drive the protocol through arbitrary interleavings of
// split and deliver events — the fully asynchronous executions of the
// paper's model, including messages parked in channels for arbitrarily
// long — and audit the proof's invariants (conservation, Lemma 1,
// Lemma 2) after EVERY event via the ddc::audit machinery.
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/audit/auditors.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/stats/rng.hpp>
#include <ddc/summaries/centroid.hpp>
#include <ddc/summaries/gaussian_summary.hpp>

namespace ddc {
namespace {

using linalg::Vector;

/// A message parked "in the channel" with its destination.
template <typename Message>
struct InFlight {
  std::size_t target;
  Message message;
};

template <typename Policy, typename Node>
class FuzzHarness {
 public:
  FuzzHarness(std::vector<Node> nodes, std::vector<typename Policy::Value> inputs,
              std::int64_t quanta_per_unit, std::uint64_t seed)
      : nodes_(std::move(nodes)),
        inputs_(std::move(inputs)),
        quanta_per_unit_(quanta_per_unit),
        rng_(seed),
        angle_monitor_(inputs_.size(), 1e-9) {}

  /// Executes `ops` random events, auditing after each.
  void run(std::size_t ops) {
    for (std::size_t op = 0; op < ops; ++op) {
      // 50/50 split vs deliver (forced when there is nothing to deliver).
      if (channel_.empty() || rng_.bernoulli(0.5)) {
        do_split();
      } else {
        do_deliver();
      }
      audit();
    }
    drain();
    audit();
  }

  /// Delivers everything still in flight.
  void drain() {
    while (!channel_.empty()) do_deliver();
  }

 private:
  void do_split() {
    const std::size_t sender = rng_.uniform_index(nodes_.size());
    auto msg = nodes_[sender].prepare_message();
    if (msg.empty()) return;
    std::size_t target = rng_.uniform_index(nodes_.size() - 1);
    if (target >= sender) ++target;  // anyone but self
    channel_.push_back({target, std::move(msg)});
  }

  void do_deliver() {
    // Arbitrary (non-FIFO) channel: pick any parked message; sometimes
    // deliver a batch of several addressed to the same node.
    const std::size_t pick = rng_.uniform_index(channel_.size());
    const std::size_t target = channel_[pick].target;
    std::vector<typename Node::Message> batch;
    batch.push_back(std::move(channel_[pick].message));
    channel_.erase(channel_.begin() + static_cast<std::ptrdiff_t>(pick));
    for (std::size_t i = 0; i < channel_.size() && batch.size() < 4;) {
      if (channel_[i].target == target && rng_.bernoulli(0.5)) {
        batch.push_back(std::move(channel_[i].message));
        channel_.erase(channel_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    nodes_[target].absorb(std::move(batch));
  }

  void audit() {
    std::vector<core::Classification<typename Policy::Summary>> in_flight;
    for (const auto& f : channel_) in_flight.push_back(f.message);
    const auto pool =
        audit::collect_pool<typename Policy::Summary>(nodes_, in_flight);
    audit::check_conservation(pool,
                              static_cast<std::int64_t>(nodes_.size()) *
                                  quanta_per_unit_);
    audit::check_lemma1<Policy>(pool, inputs_, quanta_per_unit_, 1e-6);
    angle_monitor_.observe(pool);
  }

  std::vector<Node> nodes_;
  std::vector<typename Policy::Value> inputs_;
  std::int64_t quanta_per_unit_;
  stats::Rng rng_;
  std::deque<InFlight<typename Node::Message>> channel_;
  audit::ReferenceAngleMonitor angle_monitor_;
};

class ScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScheduleFuzz, CentroidInvariantsHoldUnderArbitrarySchedules) {
  stats::Rng rng(GetParam());
  const std::size_t n = 8;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 50.0, 1.0)});
  }
  sim::EngineConfig config;
  config.k = 2;
  config.quanta_per_unit = 1 << 10;  // coarse on purpose: stress rounding
  config.track_aux = true;
  config.protocol_seed = GetParam();
  FuzzHarness<summaries::CentroidPolicy, gossip::CentroidNode> harness(
      gossip::make_centroid_nodes(inputs, config), inputs,
      config.quanta_per_unit, GetParam() + 1);
  harness.run(400);
}

TEST_P(ScheduleFuzz, GaussianInvariantsHoldUnderArbitrarySchedules) {
  stats::Rng rng(GetParam() * 31);
  const std::size_t n = 6;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 20.0, 1.0),
                            rng.normal()});
  }
  sim::EngineConfig config;
  config.k = 3;
  config.quanta_per_unit = 1 << 12;
  config.track_aux = true;
  config.protocol_seed = GetParam();
  FuzzHarness<summaries::GaussianPolicy, gossip::GmNode> harness(
      gossip::make_gm_nodes(inputs, config), inputs, config.quanta_per_unit,
      GetParam() + 7);
  harness.run(250);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace ddc
