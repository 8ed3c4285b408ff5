// End-to-end over the wire: the classifier protocol with every message
// serialized to bytes and decoded on arrival — the full stack a real
// deployment would run. Checks that serialization composes with the
// protocol (exact weight conservation survives the byte round-trip; the
// network still converges) and accounts actual bandwidth.
#include <gtest/gtest.h>

#include <ddc/gossip/network.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/wire/serialize.hpp>

namespace ddc {
namespace {

using linalg::Vector;
using stats::Gaussian;

/// A GM node whose wire format is actual bytes: every outgoing message is
/// encoded and every incoming one decoded. Wraps gossip::GmNode.
class WireGmNode {
 public:
  struct Message {
    std::vector<std::byte> bytes;
    [[nodiscard]] bool empty() const noexcept { return bytes.empty(); }
  };

  WireGmNode(const Vector& input, partition::EmPartition policy,
             core::ClassifierOptions options)
      : inner_(input, std::move(policy), options) {}

  Message prepare_message() {
    auto classification = inner_.prepare_message();
    if (classification.empty()) return {};
    Message out{wire::encode_classification(classification)};
    bytes_sent_ += out.bytes.size();
    return out;
  }

  void absorb(std::vector<Message> batch) {
    std::vector<gossip::GmNode::Message> decoded;
    decoded.reserve(batch.size());
    for (const auto& m : batch) {
      decoded.push_back(wire::decode_classification<Gaussian>(m.bytes));
    }
    inner_.absorb(std::move(decoded));
  }

  [[nodiscard]] const core::Classification<Gaussian>& classification() const {
    return inner_.classification();
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }

 private:
  gossip::GmNode inner_;
  std::uint64_t bytes_sent_ = 0;
};

static_assert(sim::GossipNode<WireGmNode>);

TEST(WireProtocol, ConvergesOverSerializedChannel) {
  stats::Rng rng(601);
  const std::size_t n = 24;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 15.0, 1.0),
                            rng.normal()});
  }
  std::vector<WireGmNode> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    core::ClassifierOptions options;
    options.k = 2;
    nodes.emplace_back(inputs[i],
                       partition::EmPartition(stats::Rng::derive(602, i)),
                       options);
  }
  shard::ShardEngine<WireGmNode> runner(sim::Topology::complete(n),
                                        std::move(nodes));
  runner.run_rounds(60);

  // Convergence: all nodes agree, clusters recovered.
  EXPECT_LT(
      (metrics::max_disagreement_vs_first<summaries::GaussianPolicy>(
          runner.nodes())),
      1e-2);
  const auto& c = runner.nodes()[0].classification();
  ASSERT_EQ(c.size(), 2u);
  const double lo = std::min(c[0].summary.mean()[0], c[1].summary.mean()[0]);
  const double hi = std::max(c[0].summary.mean()[0], c[1].summary.mean()[0]);
  EXPECT_NEAR(lo, 0.0, 2.0);
  EXPECT_NEAR(hi, 15.0, 2.0);

  // Exact conservation survives the byte round-trip (weights are integer
  // quanta end to end).
  EXPECT_EQ(metrics::total_quanta(runner.nodes()),
            static_cast<std::int64_t>(n) * (std::int64_t{1} << 20));

  // Bandwidth accounting: every message fits a small fixed budget
  // (k=2 Gaussian collections in R² ≈ 106 bytes + header).
  for (const auto& node : runner.nodes()) {
    EXPECT_LE(node.bytes_sent(), 60u * 120u);
  }
}

}  // namespace
}  // namespace ddc
