// EngineConfig: the unified simulation configuration object.
#include <ddc/sim/engine_config.hpp>

#include <ddc/common/error.hpp>

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

TEST(EngineConfig, TopologyFamilyNamesRoundTrip) {
  for (const TopologyFamily family :
       {TopologyFamily::complete, TopologyFamily::ring,
        TopologyFamily::directed_ring, TopologyFamily::line,
        TopologyFamily::star, TopologyFamily::grid, TopologyFamily::torus,
        TopologyFamily::geometric, TopologyFamily::erdos_renyi}) {
    EXPECT_EQ(parse_topology_family(topology_family_name(family)), family);
  }
  EXPECT_THROW((void)parse_topology_family("moebius"), ConfigError);
}

TEST(EngineConfig, TopologySpecDefaultsMatchDdcsimFormulas) {
  TopologySpec spec;
  spec.nodes = 200;
  EXPECT_DOUBLE_EQ(spec.resolved_radius(), 0.15);  // max(0.15, 2/√200)
  EXPECT_DOUBLE_EQ(spec.resolved_edge_probability(), 0.05);  // max(0.05, 8/200)
  spec.nodes = 64;
  EXPECT_DOUBLE_EQ(spec.resolved_radius(), 0.25);            // 2/8
  EXPECT_DOUBLE_EQ(spec.resolved_edge_probability(), 0.125);  // 8/64
  spec.radius = 0.4;
  spec.edge_probability = 0.3;
  EXPECT_DOUBLE_EQ(spec.resolved_radius(), 0.4);
  EXPECT_DOUBLE_EQ(spec.resolved_edge_probability(), 0.3);
}

TEST(EngineConfig, TopologySpecBuildsEveryFamily) {
  stats::Rng rng(1);
  for (const TopologyFamily family :
       {TopologyFamily::complete, TopologyFamily::ring,
        TopologyFamily::directed_ring, TopologyFamily::line,
        TopologyFamily::star, TopologyFamily::geometric,
        TopologyFamily::erdos_renyi}) {
    TopologySpec spec;
    spec.family = family;
    spec.nodes = 25;
    EXPECT_EQ(spec.build(rng).num_nodes(), 25U) << topology_family_name(family);
  }
  // Grid packs the most-square exact factorization, so rows·cols == n
  // for every n — the engines require one node per vertex.
  TopologySpec grid;
  grid.family = TopologyFamily::grid;
  grid.nodes = 25;
  EXPECT_EQ(grid.build(rng).num_nodes(), 25U);  // 5×5
  grid.nodes = 24;
  EXPECT_EQ(grid.build(rng).num_nodes(), 24U);  // 4×6
  grid.nodes = 100000;
  EXPECT_EQ(grid.build(rng).num_nodes(), 100000U);  // 250×400, not 316×317
  grid.nodes = 13;
  EXPECT_EQ(grid.build(rng).num_nodes(), 13U);  // prime: 1×13 line
}

TEST(EngineConfig, RoundOptionsSliceCarriesEverything) {
  EngineConfig config;
  config.selection = NeighborSelection::round_robin;
  config.pattern = GossipPattern::push_pull;
  config.seed = 99;
  config.crash_probability = 0.05;
  config.crash_send_policy = CrashSendPolicy::drop_at_crashed;
  config.message_loss_probability = 0.1;
  config.parallelism = 4;

  const RoundRunnerOptions round = config.round_options();
  EXPECT_EQ(round.selection, NeighborSelection::round_robin);
  EXPECT_EQ(round.pattern, GossipPattern::push_pull);
  EXPECT_EQ(round.seed, 99U);
  EXPECT_DOUBLE_EQ(round.crash_probability, 0.05);
  EXPECT_EQ(round.crash_send_policy, CrashSendPolicy::drop_at_crashed);
  EXPECT_DOUBLE_EQ(round.message_loss_probability, 0.1);
  EXPECT_EQ(round.parallelism, 4U);

  config.async.mean_tick_interval = 2.0;
  config.async.min_delay = 0.1;
  config.async.max_delay = 1.5;
  const AsyncRunnerOptions async = config.async_options();
  EXPECT_EQ(async.selection, NeighborSelection::round_robin);
  EXPECT_EQ(async.seed, 99U);
  EXPECT_DOUBLE_EQ(async.mean_tick_interval, 2.0);
  EXPECT_DOUBLE_EQ(async.min_delay, 0.1);
  EXPECT_DOUBLE_EQ(async.max_delay, 1.5);
}

TEST(EngineConfig, BackendResolution) {
  EngineConfig config;
  EXPECT_EQ(config.backend, EngineBackend::soa);  // SoA is the default
  config.topology.nodes = 10;
  EXPECT_TRUE(config.use_soa());  // at any size
  config.backend = EngineBackend::object;
  EXPECT_FALSE(config.use_soa());
}

TEST(EngineConfig, ValidateRejectsBadValues) {
  EngineConfig config;
  config.validate();  // defaults are valid

  EngineConfig bad = config;
  bad.topology.nodes = 1;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.crash_probability = 1.5;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.message_loss_probability = -0.1;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.k = 0;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.quanta_per_unit = 0;
  EXPECT_THROW(bad.validate(), ConfigError);

  bad = config;
  bad.async.min_delay = 3.0;  // > max_delay
  EXPECT_THROW(bad.validate(), ConfigError);
}

// Node ids are 32-bit and the largest id value means "no target", so a
// run has at most kMaxNodes = 2^32 − 2 nodes. Validating sizes nothing.
TEST(EngineConfig, ValidateBoundsNodesByNodeId) {
  EngineConfig config;
  config.quanta_per_unit = 1;
  config.topology.nodes = kMaxNodes;
  config.validate();

  config.topology.nodes = kMaxNodes + 1;  // 2^32 − 1
  try {
    config.validate();
    ADD_FAILURE() << "2^32 - 1 nodes accepted";
  } catch (const ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("4294967295"), std::string::npos) << message;
  }
  config.topology.nodes = std::size_t{1} << 32;
  EXPECT_THROW(config.validate(), ConfigError);
}

// Lemma 1's total weight n · quanta_per_unit must stay within 2^62, so
// the int64 weight sums cannot overflow.
TEST(EngineConfig, ValidateBoundsTotalWeight) {
  EngineConfig config;
  config.topology.nodes = 64;
  config.quanta_per_unit = std::int64_t{1} << 56;  // W = 2^62 exactly
  config.validate();

  config.quanta_per_unit = (std::int64_t{1} << 56) + 1;
  EXPECT_THROW(config.validate(), ConfigError);
  config.quanta_per_unit = std::int64_t{1} << 62;
  try {
    config.validate();
    ADD_FAILURE() << "64 nodes × 2^62 quanta accepted";
  } catch (const ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("64"), std::string::npos) << message;
    EXPECT_NE(message.find("4611686018427387904"), std::string::npos)
        << message;
  }

  config.topology.nodes = 1'000'000;
  config.quanta_per_unit = std::int64_t{1} << 42;  // W ≈ 2^61.9
  config.validate();
  config.quanta_per_unit = std::int64_t{1} << 43;
  EXPECT_THROW(config.validate(), ConfigError);
}

}  // namespace
}  // namespace ddc::sim
