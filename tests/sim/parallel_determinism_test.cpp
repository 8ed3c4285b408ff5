// The engine's headline guarantee: `parallelism = N` is BIT-IDENTICAL to
// `parallelism = 1`. A parallel run must reproduce the sequential run's
// classifications (compared on the wire, byte for byte), its trace event
// sequence, and its crash pattern — across gossip patterns and failure
// configurations. Any divergence means an environment draw leaked into a
// parallel phase or two nodes raced on shared state.
#include <ddc/shard/factories.hpp>
#include <ddc/sim/trace.hpp>
#include <ddc/wire/serialize.hpp>

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

struct FaultConfig {
  std::string name;
  GossipPattern pattern = GossipPattern::push;
  double crash_probability = 0.0;
  double loss_probability = 0.0;
  NeighborSelection selection = NeighborSelection::uniform_random;
};

std::vector<FaultConfig> fault_configs() {
  return {
      {"push_clean", GossipPattern::push, 0.0, 0.0},
      {"push_crashes", GossipPattern::push, 0.05, 0.0},
      {"push_losses", GossipPattern::push, 0.0, 0.1},
      {"push_crashes_losses", GossipPattern::push, 0.05, 0.1},
      {"push_pull_clean", GossipPattern::push_pull, 0.0, 0.0},
      {"push_pull_crashes", GossipPattern::push_pull, 0.05, 0.0},
      {"push_pull_losses", GossipPattern::push_pull, 0.0, 0.1},
      {"push_pull_crashes_losses", GossipPattern::push_pull, 0.05, 0.1},
      {"pull_crashes", GossipPattern::pull, 0.05, 0.0},
      {"push_pull_round_robin", GossipPattern::push_pull, 0.05, 0.0,
       NeighborSelection::round_robin},
  };
}

struct RunResult {
  std::vector<std::vector<std::byte>> classifications;
  std::vector<bool> alive;
  std::vector<TraceEvent> events;
};

/// 64-node GM network, 25 rounds at the given thread count.
RunResult run_gm(const FaultConfig& config, std::size_t parallelism) {
  const std::size_t n = 64;
  stats::Rng rng(7);
  std::vector<linalg::Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(linalg::Vector{
        i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(30.0, 2.0),
        rng.normal(0.0, 1.0)});
  }
  EngineConfig engine;
  engine.k = 2;
  engine.protocol_seed = 8;
  engine.pattern = config.pattern;
  engine.selection = config.selection;
  engine.crash_probability = config.crash_probability;
  engine.message_loss_probability = config.loss_probability;
  engine.seed = 9;
  engine.parallelism = parallelism;

  auto runner =
      shard::make_gm_round_runner(Topology::complete(n), inputs, engine);
  TraceRecorder trace;
  runner.set_trace(&trace);
  runner.run_rounds(25);

  RunResult result;
  for (const auto& node : runner.nodes()) {
    result.classifications.push_back(
        wire::encode_classification(node.classification()));
  }
  for (NodeId i = 0; i < n; ++i) result.alive.push_back(runner.alive(i));
  result.events = trace.events();
  return result;
}

TEST(ParallelDeterminism, FourThreadsBitIdenticalToSequential) {
  for (const FaultConfig& config : fault_configs()) {
    SCOPED_TRACE(config.name);
    const RunResult sequential = run_gm(config, 1);
    const RunResult parallel = run_gm(config, 4);

    ASSERT_EQ(sequential.classifications.size(),
              parallel.classifications.size());
    for (std::size_t i = 0; i < sequential.classifications.size(); ++i) {
      EXPECT_EQ(sequential.classifications[i], parallel.classifications[i])
          << "node " << i << " classification diverged";
    }
    EXPECT_EQ(sequential.alive, parallel.alive);
    EXPECT_EQ(sequential.events, parallel.events);
  }
}

TEST(ParallelDeterminism, ThreadCountIsIrrelevant) {
  // 1, 2, 3 and 8 lanes (8 > nodes/chunking granularity) all agree.
  FaultConfig config{"push_pull_crashes", GossipPattern::push_pull, 0.05, 0.0};
  const RunResult reference = run_gm(config, 1);
  for (const std::size_t threads : {2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    const RunResult other = run_gm(config, threads);
    EXPECT_EQ(reference.classifications, other.classifications);
    EXPECT_EQ(reference.alive, other.alive);
    EXPECT_EQ(reference.events, other.events);
  }
}

TEST(ParallelDeterminism, AutoParallelismMatchesSequential) {
  // parallelism = 0 resolves to the hardware thread count — whatever that
  // is on the host, results must not change.
  FaultConfig config{"push_crashes", GossipPattern::push, 0.05, 0.0};
  const RunResult sequential = run_gm(config, 1);
  const RunResult automatic = run_gm(config, 0);
  EXPECT_EQ(sequential.classifications, automatic.classifications);
  EXPECT_EQ(sequential.alive, automatic.alive);
  EXPECT_EQ(sequential.events, automatic.events);
}

TEST(ParallelDeterminism, LossFreeRunsUnaffectedByLossStream) {
  // Loss verdicts are hashed per message and consume no environment
  // draw, so configuring loss_probability = 0 must reproduce a run where
  // the loss knob never existed (same selection draws, same crash
  // schedule).
  FaultConfig a{"push_crashes", GossipPattern::push, 0.05, 0.0};
  const RunResult r1 = run_gm(a, 1);
  const RunResult r2 = run_gm(a, 4);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_FALSE(r1.events.empty());
}

}  // namespace
}  // namespace ddc::sim
