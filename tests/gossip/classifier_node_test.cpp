#include <ddc/gossip/classifier_node.hpp>

#include <gtest/gtest.h>

#include <ddc/gossip/network.hpp>
#include <ddc/sim/gossip_node.hpp>

namespace ddc::gossip {
namespace {

using linalg::Matrix;
using linalg::Vector;

// All shipped node types satisfy the runner interface.
static_assert(sim::GossipNode<GmNode>);
static_assert(sim::GossipNode<CentroidNode>);
static_assert(sim::GossipNode<GmNearestMeansNode>);
static_assert(sim::GossipNode<GmRunnallsNode>);
static_assert(sim::GossipNode<PushSumNode>);

sim::EngineConfig small_config(std::size_t k) {
  sim::EngineConfig c;
  c.k = k;
  c.quanta_per_unit = 1 << 10;
  c.protocol_seed = 9;
  return c;
}

TEST(ClassifierNode, StartsWithOwnValueOnly) {
  const auto nodes =
      make_gm_nodes({Vector{1.0, 2.0}, Vector{3.0, 4.0}}, small_config(2));
  ASSERT_EQ(nodes.size(), 2u);
  ASSERT_EQ(nodes[0].classification().size(), 1u);
  EXPECT_EQ(nodes[0].classification()[0].summary.mean(), (Vector{1.0, 2.0}));
}

TEST(ClassifierNode, PrepareMessageSplitsWeight) {
  auto nodes = make_gm_nodes({Vector{0.0, 0.0}, Vector{1.0, 1.0}},
                             small_config(2));
  const auto msg = nodes[0].prepare_message();
  ASSERT_EQ(msg.size(), 1u);
  EXPECT_EQ(msg[0].weight.quanta(), 512);
  EXPECT_EQ(nodes[0].classification()[0].weight.quanta(), 512);
}

TEST(ClassifierNode, AbsorbBatchRunsSinglePartition) {
  auto nodes = make_gm_nodes(
      {Vector{0.0, 0.0}, Vector{0.1, 0.0}, Vector{9.0, 9.0}}, small_config(2));
  std::vector<GmNode::Message> batch;
  batch.push_back(nodes[1].prepare_message());
  batch.push_back(nodes[2].prepare_message());
  nodes[0].absorb(std::move(batch));
  // 3 collections came together under k = 2: exactly one receive, one
  // partition; the two near-zero values merged.
  EXPECT_EQ(nodes[0].classifier().stats().receives, 1u);
  ASSERT_EQ(nodes[0].classification().size(), 2u);
}

TEST(ClassifierNode, CentroidVariantMergesByDistance) {
  auto nodes = make_centroid_nodes(
      {Vector{0.0}, Vector{0.5}, Vector{100.0}}, small_config(2));
  std::vector<CentroidNode::Message> batch;
  batch.push_back(nodes[1].prepare_message());
  batch.push_back(nodes[2].prepare_message());
  nodes[0].absorb(std::move(batch));
  ASSERT_EQ(nodes[0].classification().size(), 2u);
  // One collection near 0 (merged 0.0 & 0.5), one at 100.
  bool found_far = false;
  for (const auto& c : nodes[0].classification()) {
    if (c.summary[0] > 50.0) found_far = true;
  }
  EXPECT_TRUE(found_far);
}

TEST(ClassifierNode, WeightConservedAcrossExchange) {
  auto nodes =
      make_gm_nodes({Vector{0.0, 0.0}, Vector{5.0, 5.0}}, small_config(2));
  const std::int64_t before = nodes[0].classification().total_weight().quanta() +
                              nodes[1].classification().total_weight().quanta();
  auto msg = nodes[0].prepare_message();
  std::vector<GmNode::Message> batch;
  batch.push_back(std::move(msg));
  nodes[1].absorb(std::move(batch));
  const std::int64_t after = nodes[0].classification().total_weight().quanta() +
                             nodes[1].classification().total_weight().quanta();
  EXPECT_EQ(before, after);
}

TEST(NetworkBuilder, AuxTrackingPropagates) {
  sim::EngineConfig c = small_config(2);
  c.track_aux = true;
  const auto nodes = make_gm_nodes({Vector{0.0, 0.0}, Vector{1.0, 1.0}}, c);
  ASSERT_TRUE(nodes[1].classification()[0].aux.has_value());
  EXPECT_EQ(*nodes[1].classification()[0].aux, linalg::unit_vector(2, 1));
}

TEST(NetworkBuilder, RejectsEmptyInputs) {
  EXPECT_THROW((void)make_gm_nodes({}, small_config(2)), ContractViolation);
  EXPECT_THROW((void)make_centroid_nodes({}, small_config(2)),
               ContractViolation);
  EXPECT_THROW((void)make_push_sum_nodes({}), ContractViolation);
}

}  // namespace
}  // namespace ddc::gossip
