// End-to-end coverage of the protocol variants that the headline
// convergence tests do not exercise: the histogram instantiation, the
// push-pull pattern, and the harsher drop-at-crashed failure model.
#include <gtest/gtest.h>

#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/partition/greedy.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/summaries/centroid.hpp>
#include <ddc/summaries/histogram_summary.hpp>

namespace ddc {
namespace {

using linalg::Vector;
using HistogramPolicy = summaries::HistogramPolicy<summaries::DefaultBinning>;
using HistogramNode =
    gossip::ClassifierNode<HistogramPolicy,
                           partition::GreedyDistancePartition<HistogramPolicy>>;

TEST(HistogramProtocol, AllNodesConvergeToTheGlobalHistogram) {
  stats::Rng rng(701);
  const std::size_t n = 24;
  std::vector<double> inputs;
  stats::Histogram expected(summaries::DefaultBinning::lo,
                            summaries::DefaultBinning::hi,
                            summaries::DefaultBinning::bins);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(rng.normal(i % 2 == 0 ? -10.0 : 10.0, 2.0));
    expected.add(inputs.back(), 1.0 / static_cast<double>(n));
  }

  std::vector<HistogramNode> nodes;
  for (std::size_t i = 0; i < n; ++i) {
    core::ClassifierOptions options;
    options.k = 1;  // the related-work estimators keep ONE distribution
    nodes.emplace_back(inputs[i],
                       partition::GreedyDistancePartition<HistogramPolicy>{},
                       options);
  }
  shard::ShardEngine<HistogramNode> runner(sim::Topology::complete(n),
                                           std::move(nodes));
  runner.run_rounds(80);

  for (const auto& node : runner.nodes()) {
    ASSERT_EQ(node.classification().size(), 1u);
    // Each node's (normalized) histogram matches the global one.
    EXPECT_LT(node.classification()[0].summary.l1_distance(expected), 0.01);
  }
  // And they agree with each other under the policy's own metric.
  EXPECT_LT((metrics::max_disagreement_vs_first<HistogramPolicy>(
                runner.nodes())),
            0.01);
}

TEST(PushPullPattern, ClassifierConservesWeightExactly) {
  stats::Rng rng(702);
  const std::size_t n = 20;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 60.0, 1.0)});
  }
  sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = 702;
  sim::RoundRunnerOptions options;
  options.pattern = sim::GossipPattern::push_pull;
  options.seed = 703;
  shard::ShardEngine<gossip::CentroidNode> runner(
      sim::Topology::erdos_renyi(n, 0.3, rng),
      gossip::make_centroid_nodes(inputs, config), options);
  const std::int64_t expected =
      static_cast<std::int64_t>(n) * config.quanta_per_unit;
  for (int r = 0; r < 80; ++r) {
    runner.run_round();
    ASSERT_EQ(metrics::total_quanta(runner.nodes()), expected) << "round " << r;
  }
  EXPECT_LT((metrics::max_disagreement_vs_first<summaries::CentroidPolicy>(
                runner.nodes())),
            0.05);
}

TEST(DropAtCrashedPolicy, SurvivorsLoseWeightButKeepValidState) {
  stats::Rng rng(703);
  const std::size_t n = 30;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 60.0, 1.0)});
  }
  sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = 704;
  sim::RoundRunnerOptions options;
  options.crash_probability = 0.05;
  options.crash_send_policy = sim::CrashSendPolicy::drop_at_crashed;
  options.seed = 705;
  shard::ShardEngine<gossip::CentroidNode> runner(
      sim::Topology::complete(n), gossip::make_centroid_nodes(inputs, config),
      options);
  runner.run_rounds(25);

  // Weight has drained (that is the point of this policy)…
  EXPECT_LT(metrics::total_quanta(runner.nodes()),
            static_cast<std::int64_t>(n) * config.quanta_per_unit);
  // …but every live node still holds a structurally valid classification.
  for (sim::NodeId i = 0; i < n; ++i) {
    if (!runner.alive(i)) continue;
    const auto& c = runner.nodes()[i].classification();
    ASSERT_GE(c.size(), 1u);
    ASSERT_LE(c.size(), 2u);
    for (const auto& col : c) ASSERT_TRUE(col.weight.positive());
  }
}

TEST(NetworkBuilder, NodeOptionsPropagateAllFields) {
  sim::EngineConfig config;
  config.k = 5;
  config.quanta_per_unit = 4096;
  config.track_aux = true;
  const core::ClassifierOptions options = gossip::node_options(config, 3, 10);
  EXPECT_EQ(options.k, 5u);
  EXPECT_EQ(options.quanta_per_unit, 4096);
  EXPECT_TRUE(options.track_aux);
  EXPECT_EQ(options.num_nodes, 10u);
  EXPECT_EQ(options.node_index, 3u);
}

}  // namespace
}  // namespace ddc
