// Pull and push-pull gossip on the asynchronous runner.
#include <gtest/gtest.h>

#include <ddc/gossip/network.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/sim/async_runner.hpp>
#include <ddc/summaries/centroid.hpp>

namespace ddc::sim {
namespace {

using linalg::Vector;

std::vector<Vector> bimodal(std::size_t n, stats::Rng& rng) {
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 40.0, 1.0)});
  }
  return inputs;
}

AsyncRunnerOptions options_with(GossipPattern pattern,
                                std::uint64_t seed) {
  AsyncRunnerOptions options;
  options.pattern = pattern;
  options.seed = seed;
  return options;
}

double run_and_measure(GossipPattern pattern, std::uint64_t seed,
                       double until) {
  stats::Rng rng(seed);
  const std::size_t n = 16;
  const auto inputs = bimodal(n, rng);
  sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = seed;
  AsyncRunner<gossip::CentroidNode> runner(
      Topology::ring(n), gossip::make_centroid_nodes(inputs, config),
      options_with(pattern, seed));
  runner.run_until(until);
  return metrics::max_disagreement_vs_first<summaries::CentroidPolicy>(
      runner.nodes());
}

TEST(AsyncPatterns, PullConverges) {
  EXPECT_LT(run_and_measure(GossipPattern::pull, 21, 800.0), 0.05);
}

TEST(AsyncPatterns, PushPullConverges) {
  EXPECT_LT(run_and_measure(GossipPattern::push_pull, 22, 800.0), 0.05);
}

TEST(AsyncPatterns, PullRequestsAreCountedOnlyForPullModes) {
  stats::Rng rng(23);
  const auto inputs = bimodal(8, rng);
  sim::EngineConfig config;
  config.k = 2;

  AsyncRunner<gossip::CentroidNode> push(
      Topology::complete(8), gossip::make_centroid_nodes(inputs, config),
      options_with(GossipPattern::push, 23));
  push.run_until(50.0);
  EXPECT_EQ(push.pull_requests_delivered(), 0u);
  EXPECT_GT(push.messages_delivered(), 0u);

  AsyncRunner<gossip::CentroidNode> pull(
      Topology::complete(8), gossip::make_centroid_nodes(inputs, config),
      options_with(GossipPattern::pull, 23));
  pull.run_until(50.0);
  EXPECT_GT(pull.pull_requests_delivered(), 0u);
  // Every delivered data message in pull mode was solicited.
  EXPECT_LE(pull.messages_delivered(), pull.pull_requests_delivered());
}

TEST(AsyncPatterns, PushPullMovesMoreDataPerTick) {
  stats::Rng rng(24);
  const auto inputs = bimodal(8, rng);
  sim::EngineConfig config;
  config.k = 2;

  AsyncRunner<gossip::CentroidNode> push(
      Topology::complete(8), gossip::make_centroid_nodes(inputs, config),
      options_with(GossipPattern::push, 24));
  AsyncRunner<gossip::CentroidNode> both(
      Topology::complete(8), gossip::make_centroid_nodes(inputs, config),
      options_with(GossipPattern::push_pull, 24));
  push.run_until(100.0);
  both.run_until(100.0);
  EXPECT_GT(both.messages_delivered(), push.messages_delivered() * 3 / 2);
}

TEST(AsyncPatterns, WeightConservedUnderPullOnceQuiescent) {
  stats::Rng rng(25);
  const std::size_t n = 10;
  const auto inputs = bimodal(n, rng);
  sim::EngineConfig config;
  config.k = 2;
  AsyncRunnerOptions options = options_with(GossipPattern::pull, 25);
  options.max_delay = 0.1;  // short delays so quiescence is quick
  AsyncRunner<gossip::CentroidNode> runner(
      Topology::complete(n), gossip::make_centroid_nodes(inputs, config),
      options);
  runner.run_until(200.0);
  // Everything in flight at the horizon is bounded by a couple of
  // exchanges; the held weight must be within that of the total.
  const std::int64_t held = metrics::total_quanta(runner.nodes());
  const std::int64_t total =
      static_cast<std::int64_t>(n) * (std::int64_t{1} << 20);
  EXPECT_LE(held, total);
  EXPECT_GE(held, total - (std::int64_t{1} << 20));
}

}  // namespace
}  // namespace ddc::sim
