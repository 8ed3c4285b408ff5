// End-to-end tests of the distributed classification protocol — the
// executable counterparts of the paper's Section 6 claims:
//   * Theorem 1: on any connected topology, under round-based or fully
//     asynchronous scheduling, all nodes converge to one classification of
//     the complete input set.
//   * Lemma 1: the ⟨summary, weight⟩ pairs track exactly the collections
//     described by the auxiliary mixture vectors.
//   * Lemma 2: the maximal reference angles never increase.
//   * Exact conservation of weight quanta in crash-free executions.
#include <algorithm>
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/metrics/gaussian_metrics.hpp>
#include <ddc/sim/async_runner.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/stats/rng.hpp>
#include <ddc/summaries/centroid.hpp>
#include <ddc/summaries/gaussian_summary.hpp>

namespace ddc {
namespace {

using gossip::CentroidNode;
using gossip::GmNode;
using linalg::Vector;
using shard::ShardEngine;
using sim::Topology;
using summaries::CentroidPolicy;
using summaries::GaussianPolicy;

/// Two well-separated 1-D clusters: 2/3 of nodes near 0, 1/3 near 100.
std::vector<Vector> two_cluster_inputs(std::size_t n, stats::Rng& rng) {
  std::vector<Vector> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 != 2) {
      inputs.push_back(Vector{rng.normal(0.0, 1.0)});
    } else {
      inputs.push_back(Vector{rng.normal(100.0, 1.0)});
    }
  }
  return inputs;
}

sim::EngineConfig config_with(std::size_t k, bool track_aux = false,
                              std::uint64_t seed = 17) {
  sim::EngineConfig c;
  c.k = k;
  c.quanta_per_unit = std::int64_t{1} << 20;
  c.track_aux = track_aux;
  c.protocol_seed = seed;
  return c;
}

TEST(Convergence, CentroidNodesAgreeOnCompleteGraph) {
  stats::Rng rng(401);
  const std::size_t n = 32;
  const auto inputs = two_cluster_inputs(n, rng);
  ShardEngine<CentroidNode> runner(Topology::complete(n),
                                   gossip::make_centroid_nodes(inputs,
                                                               config_with(2)));
  runner.run_rounds(120);

  // All nodes hold (nearly) the same classification …
  EXPECT_LT((metrics::max_disagreement_vs_first<CentroidPolicy>(runner.nodes())),
            1e-3);

  // … and that classification is the two cluster centroids with the right
  // relative weights.
  const auto& c = runner.nodes()[0].classification();
  ASSERT_EQ(c.size(), 2u);
  std::size_t low = c[0].summary[0] < c[1].summary[0] ? 0 : 1;
  EXPECT_NEAR(c[low].summary[0], 0.0, 1.5);
  EXPECT_NEAR(c[1 - low].summary[0], 100.0, 1.5);
  // Exact expected fraction: values with i % 3 != 2 form the low cluster.
  std::size_t low_count = 0;
  for (const auto& v : inputs) low_count += v[0] < 50.0 ? 1 : 0;
  EXPECT_NEAR(c.relative_weight(low),
              static_cast<double>(low_count) / static_cast<double>(n), 0.01);
}

TEST(Convergence, GmNodesAgreeAndRecoverClusters) {
  stats::Rng rng(402);
  const std::size_t n = 30;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n / 2) {
      inputs.push_back(Vector{rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)});
    } else {
      inputs.push_back(Vector{rng.normal(20.0, 2.0), rng.normal(-5.0, 0.5)});
    }
  }
  ShardEngine<GmNode> runner(Topology::complete(n),
                             gossip::make_gm_nodes(inputs, config_with(2)));
  runner.run_rounds(120);

  EXPECT_LT((metrics::max_disagreement_vs_first<GaussianPolicy>(runner.nodes())),
            1e-2);
  const auto& c = runner.nodes()[0].classification();
  ASSERT_EQ(c.size(), 2u);
  const std::size_t left =
      c[0].summary.mean()[0] < c[1].summary.mean()[0] ? 0 : 1;
  EXPECT_NEAR(c[left].summary.mean()[0], 0.0, 1.5);
  EXPECT_NEAR(c[1 - left].summary.mean()[0], 20.0, 1.5);
  EXPECT_NEAR(c.relative_weight(left), 0.5, 0.02);
}

/// Parameterized over topology families (Theorem 1 claims *any* connected
/// topology works).
class TopologyConvergenceTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  static Topology make(const std::string& name, std::size_t n,
                       stats::Rng& rng) {
    if (name == "complete") return Topology::complete(n);
    if (name == "ring") return Topology::ring(n);
    if (name == "directed_ring") return Topology::directed_ring(n);
    if (name == "line") return Topology::line(n);
    if (name == "star") return Topology::star(n);
    if (name == "grid") return Topology::grid(4, n / 4);
    if (name == "geometric") return Topology::random_geometric(n, 0.45, rng);
    if (name == "erdos_renyi") return Topology::erdos_renyi(n, 0.3, rng);
    throw ConfigError("unknown topology " + name);
  }
};

TEST_P(TopologyConvergenceTest, CentroidNodesConvergeEverywhere) {
  stats::Rng rng(403);
  const std::size_t n = 16;
  const auto inputs = two_cluster_inputs(n, rng);
  Topology topology = make(GetParam(), n, rng);
  ASSERT_TRUE(topology.is_connected());
  sim::RoundRunnerOptions options;
  options.selection = sim::NeighborSelection::round_robin;  // fairness
  // On a star, a leaf halves its weight every round and is only refilled
  // every deg(center) rounds, shrinking it ~2¹⁵× between refills; the
  // quantum must be fine enough that such a collection still holds many
  // quanta (the paper's q ≪ 1/n assumption, taken seriously).
  sim::EngineConfig config = config_with(2);
  config.quanta_per_unit = std::int64_t{1} << 40;
  ShardEngine<CentroidNode> runner(
      std::move(topology), gossip::make_centroid_nodes(inputs, config),
      options);
  // Poorly-mixing topologies (line, star) equalize relative weights at a
  // diffusion timescale ~ n²·log n; give everyone ample rounds.
  runner.run_rounds(3000);
  EXPECT_LT((metrics::max_disagreement_vs_first<CentroidPolicy>(runner.nodes())),
            5e-2)
      << "topology: " << GetParam();
  // Summaries must reflect both clusters at every node.
  for (const auto& node : runner.nodes()) {
    const auto& c = node.classification();
    ASSERT_EQ(c.size(), 2u);
    const double lo = std::min(c[0].summary[0], c[1].summary[0]);
    const double hi = std::max(c[0].summary[0], c[1].summary[0]);
    EXPECT_NEAR(lo, 0.0, 3.0);
    EXPECT_NEAR(hi, 100.0, 3.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, TopologyConvergenceTest,
                         ::testing::Values("complete", "ring", "directed_ring",
                                           "line", "star", "grid", "geometric",
                                           "erdos_renyi"),
                         [](const auto& info) { return info.param; });

TEST(Conservation, QuantaExactlyConservedForManyRounds) {
  stats::Rng rng(404);
  const std::size_t n = 24;
  const auto inputs = two_cluster_inputs(n, rng);
  const sim::EngineConfig config = config_with(3);
  ShardEngine<CentroidNode> runner(
      Topology::erdos_renyi(n, 0.3, rng),
      gossip::make_centroid_nodes(inputs, config));
  const std::int64_t expected =
      static_cast<std::int64_t>(n) * config.quanta_per_unit;
  for (int r = 0; r < 100; ++r) {
    runner.run_round();
    ASSERT_EQ(metrics::total_quanta(runner.nodes()), expected)
        << "round " << r;
  }
}

TEST(Conservation, HoldsAtMinimalQuantization) {
  // quanta_per_unit = 4 is brutally coarse (q = 1/4, n = 8 → q ≫ 1/n is
  // violated); the protocol must still conserve weight and keep running —
  // only the paper's quality guarantees are off the table.
  stats::Rng rng(405);
  sim::EngineConfig config = config_with(2);
  config.quanta_per_unit = 4;
  const auto inputs = two_cluster_inputs(8, rng);
  ShardEngine<CentroidNode> runner(Topology::complete(8),
                                   gossip::make_centroid_nodes(inputs, config));
  for (int r = 0; r < 50; ++r) {
    runner.run_round();
    ASSERT_EQ(metrics::total_quanta(runner.nodes()), 32);
    for (const auto& node : runner.nodes()) {
      for (const auto& col : node.classification()) {
        ASSERT_TRUE(col.weight.positive());
      }
    }
  }
}

/// Lemma 1 audit: f(aux) = summary and ‖aux‖₁ = weight, for every
/// collection of every node, across an entire execution.
template <typename Policy, typename Node>
void audit_lemma1(const std::vector<Node>& nodes,
                  const std::vector<typename Policy::Value>& inputs,
                  std::int64_t quanta_per_unit, double tol) {
  for (const auto& node : nodes) {
    for (const auto& col : node.classification()) {
      ASSERT_TRUE(col.aux.has_value());
      // Equation 2: ‖aux‖₁ = weight.
      ASSERT_NEAR(linalg::norm1(*col.aux), col.weight.value(quanta_per_unit),
                  tol);
      // Equation 1: f(aux) = summary.
      const auto expected = Policy::summarize_mixture(inputs, *col.aux);
      ASSERT_TRUE(Policy::approx_equal(expected, col.summary, tol));
    }
  }
}

TEST(AuxiliaryCorrectness, Lemma1HoldsThroughoutCentroidExecution) {
  stats::Rng rng(406);
  const std::size_t n = 16;
  const auto inputs = two_cluster_inputs(n, rng);
  ShardEngine<CentroidNode> runner(
      Topology::complete(n),
      gossip::make_centroid_nodes(inputs, config_with(3, /*track_aux=*/true)));
  for (int r = 0; r < 40; ++r) {
    runner.run_round();
    audit_lemma1<CentroidPolicy>(runner.nodes(), inputs,
                                 std::int64_t{1} << 20, 1e-7);
  }
}

TEST(AuxiliaryCorrectness, Lemma1HoldsThroughoutGmExecution) {
  stats::Rng rng(407);
  const std::size_t n = 12;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i < n / 2 ? 0.0 : 10.0, 1.0),
                            rng.normal(0.0, 1.0)});
  }
  ShardEngine<GmNode> runner(
      Topology::complete(n),
      gossip::make_gm_nodes(inputs, config_with(2, /*track_aux=*/true)));
  for (int r = 0; r < 30; ++r) {
    runner.run_round();
    audit_lemma1<GaussianPolicy>(runner.nodes(), inputs, std::int64_t{1} << 20,
                                 1e-6);
  }
}

TEST(ReferenceAngles, Lemma2MaxAngleMonotonicallyDecreases) {
  stats::Rng rng(408);
  const std::size_t n = 10;
  const auto inputs = two_cluster_inputs(n, rng);
  ShardEngine<CentroidNode> runner(
      Topology::complete(n),
      gossip::make_centroid_nodes(inputs, config_with(2, /*track_aux=*/true)));

  // ϕ_{i,max}: maximal angle between any collection's aux vector and eᵢ.
  const auto max_reference_angles = [&] {
    std::vector<double> phi(n, 0.0);
    for (const auto& node : runner.nodes()) {
      for (const auto& col : node.classification()) {
        for (std::size_t i = 0; i < n; ++i) {
          phi[i] = std::max(
              phi[i], linalg::angle_between(*col.aux, linalg::unit_vector(n, i)));
        }
      }
    }
    return phi;
  };

  std::vector<double> prev = max_reference_angles();
  for (int r = 0; r < 60; ++r) {
    runner.run_round();
    const std::vector<double> cur = max_reference_angles();
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(cur[i], prev[i] + 1e-9)
          << "round " << r << " reference axis " << i;
    }
    prev = cur;
  }
  // Class formation (Lemma 3/4): matching collections across nodes have
  // aligned mixture vectors — node 0's low/high collections point in the
  // same mixture-space directions as every other node's.
  const auto& ref = runner.nodes()[0].classification();
  ASSERT_EQ(ref.size(), 2u);
  const std::size_t ref_low = ref[0].summary[0] < ref[1].summary[0] ? 0 : 1;
  for (const auto& node : runner.nodes()) {
    const auto& c = node.classification();
    ASSERT_EQ(c.size(), 2u);
    const std::size_t low = c[0].summary[0] < c[1].summary[0] ? 0 : 1;
    EXPECT_LT(linalg::angle_between(*c[low].aux, *ref[ref_low].aux), 0.05);
    EXPECT_LT(
        linalg::angle_between(*c[1 - low].aux, *ref[1 - ref_low].aux), 0.05);
  }
}

TEST(CrashRobustness, ProtocolSurvivesHeavyCrashes) {
  stats::Rng rng(409);
  const std::size_t n = 40;
  const auto inputs = two_cluster_inputs(n, rng);
  sim::RoundRunnerOptions options;
  options.crash_probability = 0.05;  // the Fig. 4 rate
  options.seed = 11;
  ShardEngine<CentroidNode> runner(Topology::complete(n),
                                   gossip::make_centroid_nodes(inputs,
                                                               config_with(2)),
                                   options);
  // 30 rounds at p = 0.05: each node survives w.p. 0.95³⁰ ≈ 0.21, so
  // having ≥ 1 survivor among 40 nodes is essentially certain while still
  // losing most of the network.
  runner.run_rounds(30);
  EXPECT_LT(runner.alive_count(), n);
  EXPECT_GT(runner.alive_count(), 0u);
  // Survivors still hold sane two-cluster classifications.
  for (sim::NodeId i = 0; i < n; ++i) {
    if (!runner.alive(i)) continue;
    const auto& c = runner.nodes()[i].classification();
    ASSERT_GE(c.size(), 1u);
    ASSERT_LE(c.size(), 2u);
    for (const auto& col : c) {
      const double x = col.summary[0];
      EXPECT_TRUE(std::abs(x) < 10.0 || std::abs(x - 100.0) < 10.0);
    }
  }
}

TEST(Asynchrony, GmNodesConvergeUnderRandomDelays) {
  stats::Rng rng(410);
  const std::size_t n = 16;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 30.0, 1.0)});
  }
  sim::AsyncRunnerOptions options;
  options.seed = 12;
  options.max_delay = 3.0;  // delays longer than tick intervals → reordering
  sim::AsyncRunner<GmNode> runner(Topology::erdos_renyi(n, 0.4, rng),
                                  gossip::make_gm_nodes(inputs, config_with(2)),
                                  options);
  runner.run_until(400.0);
  EXPECT_LT((metrics::max_disagreement_vs_first<GaussianPolicy>(runner.nodes())),
            0.1);
  const auto& c = runner.nodes()[0].classification();
  ASSERT_EQ(c.size(), 2u);
  const double lo = std::min(c[0].summary.mean()[0], c[1].summary.mean()[0]);
  const double hi = std::max(c[0].summary.mean()[0], c[1].summary.mean()[0]);
  EXPECT_NEAR(lo, 0.0, 3.0);
  EXPECT_NEAR(hi, 30.0, 3.0);
}

TEST(KOneSpecialCase, ClassifierDegeneratesToAverageAggregation) {
  stats::Rng rng(411);
  const std::size_t n = 20;
  std::vector<Vector> inputs;
  Vector truth(1);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.uniform(-5.0, 5.0)});
    truth += inputs.back() / static_cast<double>(n);
  }
  ShardEngine<CentroidNode> runner(Topology::complete(n),
                                   gossip::make_centroid_nodes(inputs,
                                                               config_with(1)));
  runner.run_rounds(60);
  for (const auto& node : runner.nodes()) {
    ASSERT_EQ(node.classification().size(), 1u);
    EXPECT_NEAR(node.classification()[0].summary[0], truth[0], 1e-3);
  }
}

}  // namespace
}  // namespace ddc
