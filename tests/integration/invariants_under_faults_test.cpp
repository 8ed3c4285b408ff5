// Which invariants survive which faults:
//   * message loss destroys global conservation — but Lemma 1 keeps
//     holding for every collection that still exists (it is a per-
//     collection property, independent of the pool);
//   * the GM instantiation at k = 1 degenerates to average aggregation,
//     exactly like the centroid one.
#include <gtest/gtest.h>

#include <ddc/audit/auditors.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/summaries/gaussian_summary.hpp>

namespace ddc {
namespace {

using linalg::Vector;

TEST(FaultInvariants, Lemma1HoldsPerCollectionDespiteMessageLoss) {
  stats::Rng rng(901);
  const std::size_t n = 16;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 30.0, 1.0)});
  }
  sim::EngineConfig config;
  config.k = 2;
  config.track_aux = true;
  config.protocol_seed = 901;
  sim::RoundRunnerOptions options;
  options.message_loss_probability = 0.2;
  options.seed = 902;
  shard::ShardEngine<gossip::GmNode> runner(
      sim::Topology::complete(n), gossip::make_gm_nodes(inputs, config),
      options);

  const std::int64_t full =
      static_cast<std::int64_t>(n) * config.quanta_per_unit;
  for (int r = 0; r < 40; ++r) {
    runner.run_round();
    const auto pool = audit::collect_pool<stats::Gaussian>(
        runner.nodes(),
        std::vector<core::Classification<stats::Gaussian>>{});
    // Lemma 1 still checks out collection by collection…
    ASSERT_NO_THROW((audit::check_lemma1<summaries::GaussianPolicy>(
        pool, inputs, config.quanta_per_unit, 1e-6)))
        << "round " << r;
  }
  // …while conservation is genuinely broken by the losses.
  EXPECT_LT(metrics::total_quanta(runner.nodes()), full);
}

TEST(FaultInvariants, GmWithKOneDegeneratesToAverageAggregation) {
  stats::Rng rng(903);
  const std::size_t n = 20;
  std::vector<Vector> inputs;
  Vector truth(2);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.uniform(-5.0, 5.0), rng.uniform(0.0, 9.0)});
    truth += inputs.back() / static_cast<double>(n);
  }
  sim::EngineConfig config;
  config.k = 1;
  config.protocol_seed = 903;
  shard::ShardEngine<gossip::GmNode> runner(
      sim::Topology::complete(n), gossip::make_gm_nodes(inputs, config));
  runner.run_rounds(60);
  for (const auto& node : runner.nodes()) {
    ASSERT_EQ(node.classification().size(), 1u);
    // The single Gaussian's mean is the global average; its covariance is
    // the global scatter (the "collapse" of the whole data set).
    EXPECT_LT(linalg::distance2(node.classification()[0].summary.mean(),
                                truth),
              1e-3);
  }
}

}  // namespace
}  // namespace ddc
