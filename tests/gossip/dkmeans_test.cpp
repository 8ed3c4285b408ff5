#include <ddc/gossip/dkmeans.hpp>

#include <gtest/gtest.h>

#include <ddc/common/error.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::gossip {
namespace {

using linalg::Vector;

static_assert(sim::GossipNode<DistributedKMeansNode>);

std::vector<DistributedKMeansNode> make_network(
    const std::vector<Vector>& inputs, std::vector<Vector> centroids,
    std::size_t rounds_per_iteration) {
  std::vector<DistributedKMeansNode> nodes;
  nodes.reserve(inputs.size());
  for (const auto& v : inputs) {
    nodes.emplace_back(v, centroids, rounds_per_iteration);
  }
  return nodes;
}

TEST(DistributedKMeans, ConstructionValidation) {
  EXPECT_THROW(DistributedKMeansNode(Vector{1.0}, {}, 5), ContractViolation);
  EXPECT_THROW(DistributedKMeansNode(Vector{1.0}, {Vector{1.0, 2.0}}, 5),
               ContractViolation);
  EXPECT_THROW(DistributedKMeansNode(Vector{1.0}, {Vector{0.0}}, 0),
               ContractViolation);
}

TEST(DistributedKMeans, OwnClusterPicksNearestCentroid) {
  const DistributedKMeansNode node(Vector{4.9},
                                   {Vector{0.0}, Vector{5.0}, Vector{10.0}}, 5);
  EXPECT_EQ(node.own_cluster(), 1u);
}

TEST(DistributedKMeans, IterationAdvancesEveryRoundsPerIteration) {
  std::vector<Vector> inputs = {Vector{0.0}, Vector{1.0}};
  shard::ShardEngine<DistributedKMeansNode> runner(
      sim::Topology::complete(2),
      make_network(inputs, {Vector{0.0}, Vector{1.0}}, 4));
  runner.run_rounds(4);
  EXPECT_EQ(runner.nodes()[0].iteration(), 0u);  // boundary commits lazily
  runner.run_rounds(1);
  EXPECT_EQ(runner.nodes()[0].iteration(), 1u);
  runner.run_rounds(4);
  EXPECT_EQ(runner.nodes()[0].iteration(), 2u);
}

TEST(DistributedKMeans, RecoversTwoClusters) {
  stats::Rng rng(121);
  std::vector<Vector> inputs;
  const std::size_t n = 40;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{i % 2 == 0 ? rng.normal(0.0, 1.0)
                                       : rng.normal(30.0, 1.0)});
  }
  // Deliberately poor (but shared) initial centroids.
  shard::ShardEngine<DistributedKMeansNode> runner(
      sim::Topology::complete(n),
      make_network(inputs, {Vector{10.0}, Vector{12.0}}, 25));
  runner.run_rounds(25 * 8 + 1);  // 8 Lloyd iterations

  for (const auto& node : runner.nodes()) {
    const double lo = std::min(node.centroids()[0][0], node.centroids()[1][0]);
    const double hi = std::max(node.centroids()[0][0], node.centroids()[1][0]);
    EXPECT_NEAR(lo, 0.0, 1.0);
    EXPECT_NEAR(hi, 30.0, 1.0);
  }
}

TEST(DistributedKMeans, AllNodesShareCentroidsAtBoundaries) {
  stats::Rng rng(122);
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < 16; ++i) {
    inputs.push_back(Vector{rng.uniform(0.0, 10.0)});
  }
  shard::ShardEngine<DistributedKMeansNode> runner(
      sim::Topology::complete(16),
      make_network(inputs, {Vector{2.0}, Vector{8.0}}, 30));
  runner.run_rounds(30 * 4 + 1);
  const auto& reference = runner.nodes()[0].centroids();
  for (const auto& node : runner.nodes()) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(node.centroids()[c][0], reference[c][0], 1e-3);
    }
  }
}

TEST(DistributedKMeans, StaleMessagesAreDropped) {
  DistributedKMeansNode a(Vector{0.0}, {Vector{0.0}}, 10);
  DkmMessage stale;
  stale.iteration = 99;
  stale.clusters.push_back({Vector{100.0}, 1.0});
  a.absorb({stale});
  (void)a.prepare_message();
  // The bogus mass must not have polluted the accumulator: after one full
  // iteration the centroid is still the node's own value.
  for (int r = 0; r < 10; ++r) (void)a.prepare_message();
  EXPECT_NEAR(a.centroids()[0][0], 0.0, 1e-9);
}

}  // namespace
}  // namespace ddc::gossip
