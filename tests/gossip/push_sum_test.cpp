#include <ddc/gossip/push_sum.hpp>

#include <gtest/gtest.h>

#include <ddc/common/error.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::gossip {
namespace {

using linalg::Vector;

TEST(PushSumNode, InitialEstimateIsOwnValue) {
  const PushSumNode node(Vector{3.0, -1.0});
  EXPECT_EQ(node.estimate(), (Vector{3.0, -1.0}));
  EXPECT_EQ(node.weight(), 1.0);
}

TEST(PushSumNode, SplitHalvesStateButKeepsEstimate) {
  PushSumNode node(Vector{4.0});
  const PushSumMessage msg = node.prepare_message();
  EXPECT_EQ(msg.weight, 0.5);
  EXPECT_EQ(msg.sum, (Vector{2.0}));
  EXPECT_EQ(node.weight(), 0.5);
  EXPECT_EQ(node.estimate(), (Vector{4.0}));  // s/w invariant under split
}

TEST(PushSumNode, AbsorbAccumulates) {
  PushSumNode a(Vector{0.0});
  PushSumNode b(Vector{8.0});
  std::vector<PushSumMessage> batch;
  batch.push_back(b.prepare_message());
  a.absorb(std::move(batch));
  EXPECT_EQ(a.weight(), 1.5);
  EXPECT_NEAR(a.estimate()[0], (0.0 * 1.0 + 8.0 * 0.5) / 1.5, 1e-12);
}

TEST(PushSumNode, DimensionMismatchThrows) {
  PushSumNode a(Vector{0.0});
  std::vector<PushSumMessage> batch = {{Vector{1.0, 2.0}, 0.5}};
  EXPECT_THROW(a.absorb(std::move(batch)), ContractViolation);
}

TEST(PushSumNode, EmptyMessagePredicate) {
  EXPECT_TRUE((PushSumMessage{Vector{}, 0.0}).empty());
  EXPECT_FALSE((PushSumMessage{Vector{1.0}, 0.5}).empty());
}

TEST(PushSum, ConvergesToGlobalAverageOnCompleteGraph) {
  stats::Rng rng(201);
  std::vector<Vector> inputs;
  Vector truth(2);
  const std::size_t n = 64;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(5.0, 3.0), rng.normal(-2.0, 1.0)});
    truth += inputs.back() / static_cast<double>(n);
  }
  shard::ShardEngine<PushSumNode> runner(sim::Topology::complete(n),
                                         make_push_sum_nodes(inputs));
  runner.run_rounds(60);
  for (const auto& node : runner.nodes()) {
    EXPECT_LT(linalg::distance2(node.estimate(), truth), 1e-6);
  }
}

TEST(PushSum, ConvergesOnRingToo) {
  stats::Rng rng(202);
  std::vector<Vector> inputs;
  double truth = 0.0;
  const std::size_t n = 16;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.uniform(0.0, 10.0)});
    truth += inputs.back()[0] / static_cast<double>(n);
  }
  shard::ShardEngine<PushSumNode> runner(sim::Topology::ring(n),
                                         make_push_sum_nodes(inputs));
  runner.run_rounds(300);
  for (const auto& node : runner.nodes()) {
    EXPECT_NEAR(node.estimate()[0], truth, 1e-4);
  }
}

TEST(PushSum, MassConservationAcrossRounds) {
  stats::Rng rng(203);
  std::vector<Vector> inputs;
  for (int i = 0; i < 10; ++i) inputs.push_back(Vector{rng.normal()});
  shard::ShardEngine<PushSumNode> runner(sim::Topology::complete(10),
                                         make_push_sum_nodes(inputs));
  for (int r = 0; r < 20; ++r) {
    runner.run_round();
    double weight = 0.0;
    for (const auto& node : runner.nodes()) weight += node.weight();
    EXPECT_NEAR(weight, 10.0, 1e-9) << "round " << r;
  }
}

}  // namespace
}  // namespace ddc::gossip
