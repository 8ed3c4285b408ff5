// Golden equivalence suite: the one round engine (shard::ShardEngine on
// one shard) with pool storage against the same engine with object
// storage, and the EngineConfig facade against the async runner.
//
// Three bit-identity contracts are pinned here, all by comparing FNV-1a
// digests of every node's wire-encoded final classification:
//
//   1. pool storage ≡ object storage for both protocols, 3 seeds ×
//      {lossless, loss 0.1}, plus crash models, gossip patterns,
//      selection policies, thread counts, topology families and coarse
//      quanta (one-quantum re-homes) — the struct-of-arrays pools,
//      message arena, pool split and pool receive must not change a
//      single mantissa bit relative to one-object-per-node execution,
//      and a traced pool run records the object run's event trace.
//   2. Each factory's object or async engine ≡ the same engine built
//      directly (ShardEngine / AsyncRunner over gossip::make_*_nodes,
//      runner options spelled out field by field), for both {round,
//      async} modes — a factory is pure assembly, not a new code path.
//   3. The streaming metrics equal their materializing counterparts.
//
// A 100k-node smoke test keeps the scale path honest under the normal
// ctest timeout (the full 10⁶ benchmark lives in bench/bench_scale).
#include <ddc/gossip/runners.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/metrics/streaming.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/sim/trace.hpp>
#include <ddc/wire/serialize.hpp>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

/// FNV-1a 64-bit over a byte string (same digest as hotpath_golden_test).
class Digest {
 public:
  void absorb(const std::vector<std::byte>& bytes) {
    for (const std::byte b : bytes) {
      hash_ ^= static_cast<std::uint64_t>(b);
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setfill('0') << std::setw(16) << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::vector<linalg::Vector> bimodal_inputs(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<linalg::Vector> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(linalg::Vector{
        i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(25.0, 2.0),
        rng.normal(0.0, 1.0)});
  }
  return inputs;
}

template <typename Runner>
std::string digest_nodes(const Runner& runner) {
  Digest digest;
  for (const auto& node : runner.nodes()) {
    digest.absorb(wire::encode_classification(node.classification()));
  }
  return digest.hex();
}

template <typename Engine>
std::string digest_engine(const Engine& engine) {
  Digest digest;
  engine.for_each_classification([&](std::size_t, const auto& classification) {
    digest.absorb(wire::encode_classification(classification));
  });
  return digest.hex();
}

constexpr std::size_t kGmNodes = 48;
constexpr std::size_t kCentroidNodes = 200;
constexpr std::size_t kRounds = 20;

/// The shared configuration of one equivalence case. Seeds follow the
/// hotpath-golden convention (protocol seed+100, environment seed+200).
EngineConfig base_config(std::size_t nodes, std::uint64_t seed) {
  EngineConfig config;
  config.topology.family = TopologyFamily::complete;
  config.topology.nodes = nodes;
  config.k = 2;
  config.protocol_seed = seed + 100;
  config.seed = seed + 200;
  return config;
}

/// The object engine constructed directly over `nodes` on the complete
/// graph, its options copied field by field from `config` — the
/// reference the factories and the scale engine must match.
template <typename Node>
std::string direct_round_digest(std::vector<Node> nodes,
                                const EngineConfig& config) {
  RoundRunnerOptions options;
  options.selection = config.selection;
  options.pattern = config.pattern;
  options.seed = config.seed;
  options.crash_probability = config.crash_probability;
  options.crash_send_policy = config.crash_send_policy;
  options.message_loss_probability = config.message_loss_probability;
  options.parallelism = config.parallelism;
  Topology topology = Topology::complete(nodes.size());
  shard::ShardEngine<Node> runner(std::move(topology), std::move(nodes),
                                  options);
  runner.run_rounds(kRounds);
  return digest_nodes(runner);
}

// ---------------------------------------------------------------------------
// Contract 1+2 (round mode): directly constructed ≡ factory-built
// object storage ≡ pool storage, 3 seeds × {lossless, loss 0.1}.
// ---------------------------------------------------------------------------

TEST(ScaleEquivalence, CentroidRoundBitIdentical) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const double loss : {0.0, 0.1}) {
      EngineConfig config = base_config(kCentroidNodes, seed);
      config.message_loss_probability = loss;
      const auto inputs = bimodal_inputs(kCentroidNodes, seed);
      auto nodes = gossip::make_centroid_nodes(inputs, config);
      const std::string classic = direct_round_digest(std::move(nodes), config);

      auto via_config = shard::make_centroid_round_runner(
          Topology::complete(kCentroidNodes), inputs, config);
      via_config.run_rounds(kRounds);

      auto scale = gossip::make_centroid_scale_engine(
          Topology::complete(kCentroidNodes), inputs, config);
      scale.run_rounds(kRounds);

      EXPECT_EQ(classic, digest_nodes(via_config))
          << "seed " << seed << " loss " << loss;
      EXPECT_EQ(classic, digest_engine(scale))
          << "seed " << seed << " loss " << loss;
    }
  }
}

TEST(ScaleEquivalence, GmRoundBitIdentical) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const double loss : {0.0, 0.1}) {
      EngineConfig config = base_config(kGmNodes, seed);
      config.message_loss_probability = loss;
      const auto inputs = bimodal_inputs(kGmNodes, seed);
      auto nodes = gossip::make_gm_nodes(inputs, config);
      const std::string classic = direct_round_digest(std::move(nodes), config);

      auto via_config = shard::make_gm_round_runner(
          Topology::complete(kGmNodes), inputs, config);
      via_config.run_rounds(kRounds);

      auto scale = gossip::make_gm_scale_engine(Topology::complete(kGmNodes),
                                                inputs, config);
      scale.run_rounds(kRounds);

      EXPECT_EQ(classic, digest_nodes(via_config))
          << "seed " << seed << " loss " << loss;
      EXPECT_EQ(classic, digest_engine(scale))
          << "seed " << seed << " loss " << loss;
    }
  }
}

// ---------------------------------------------------------------------------
// Contract 2 (async mode): factory-built ≡ directly constructed
// AsyncRunner.
// ---------------------------------------------------------------------------

TEST(ScaleEquivalence, AsyncFacadeBitIdentical) {
  constexpr double kHorizon = 20.0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    EngineConfig config = base_config(kGmNodes, seed);
    const auto inputs = bimodal_inputs(kGmNodes, seed);

    AsyncRunnerOptions options;
    options.selection = config.selection;
    options.pattern = config.pattern;
    options.seed = config.seed;

    {
      AsyncRunner<gossip::GmNode> classic(Topology::complete(kGmNodes),
                                          gossip::make_gm_nodes(inputs, config),
                                          options);
      classic.run_until(kHorizon);
      auto facade = gossip::make_gm_async_runner(Topology::complete(kGmNodes),
                                                 inputs, config);
      facade.run_until(kHorizon);
      EXPECT_EQ(digest_nodes(classic), digest_nodes(facade)) << "gm " << seed;
    }
    {
      AsyncRunner<gossip::CentroidNode> classic(
          Topology::complete(kGmNodes),
          gossip::make_centroid_nodes(inputs, config), options);
      classic.run_until(kHorizon);
      auto facade = gossip::make_centroid_async_runner(
          Topology::complete(kGmNodes), inputs, config);
      facade.run_until(kHorizon);
      EXPECT_EQ(digest_nodes(classic), digest_nodes(facade))
          << "centroid " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Contract 1, stressed along every remaining axis.
// ---------------------------------------------------------------------------

/// One protocol's factories and cell size, so every stress cell below
/// runs both protocols. GM cells are smaller: an EM receive costs far
/// more than a greedy one.
struct CentroidProtocol {
  static constexpr const char* kName = "centroid";
  static constexpr std::size_t kNodes = kCentroidNodes;
  static constexpr std::size_t kGridRows = 10;
  static auto round_runner(const Topology& topology,
                           const std::vector<linalg::Vector>& inputs,
                           const EngineConfig& config) {
    return shard::make_centroid_round_runner(topology, inputs, config);
  }
  static auto scale_engine(const Topology& topology,
                           const std::vector<linalg::Vector>& inputs,
                           const EngineConfig& config) {
    return gossip::make_centroid_scale_engine(topology, inputs, config);
  }
};

struct GmProtocol {
  static constexpr const char* kName = "gm";
  static constexpr std::size_t kNodes = kGmNodes;
  static constexpr std::size_t kGridRows = 6;
  static auto round_runner(const Topology& topology,
                           const std::vector<linalg::Vector>& inputs,
                           const EngineConfig& config) {
    return shard::make_gm_round_runner(topology, inputs, config);
  }
  static auto scale_engine(const Topology& topology,
                           const std::vector<linalg::Vector>& inputs,
                           const EngineConfig& config) {
    return gossip::make_gm_scale_engine(topology, inputs, config);
  }
};

/// Calls `cell(protocol)` with a CentroidProtocol, then a GmProtocol.
template <typename Cell>
void for_each_protocol(Cell&& cell) {
  cell(CentroidProtocol{});
  cell(GmProtocol{});
}

/// Runs classic and scale side by side on the same topology/config and
/// expects identical digests (and, with crashes, identical alive sets).
template <typename Protocol>
void expect_round_equivalence(Protocol, const Topology& topology,
                              const std::vector<linalg::Vector>& inputs,
                              const EngineConfig& config,
                              const std::string& label) {
  auto classic = Protocol::round_runner(topology, inputs, config);
  classic.run_rounds(kRounds);
  auto scale = Protocol::scale_engine(topology, inputs, config);
  scale.run_rounds(kRounds);
  EXPECT_EQ(digest_nodes(classic), digest_engine(scale))
      << Protocol::kName << " " << label;
  for (NodeId i = 0; i < topology.num_nodes(); ++i) {
    ASSERT_EQ(classic.alive(i), scale.alive(i))
        << Protocol::kName << " " << label << " node " << i;
  }
}

TEST(ScaleEquivalence, PatternsAndSelection) {
  for_each_protocol([](auto protocol) {
    constexpr std::size_t n = decltype(protocol)::kNodes;
    const auto inputs = bimodal_inputs(n, 7);
    for (const GossipPattern pattern :
         {GossipPattern::push, GossipPattern::pull, GossipPattern::push_pull}) {
      for (const NeighborSelection selection :
           {NeighborSelection::uniform_random,
            NeighborSelection::round_robin}) {
        EngineConfig config = base_config(n, 7);
        config.pattern = pattern;
        config.selection = selection;
        expect_round_equivalence(
            protocol, Topology::complete(n), inputs, config,
            "pattern " + std::to_string(static_cast<int>(pattern)) +
                " selection " + std::to_string(static_cast<int>(selection)));
      }
    }
  });
}

// Every other cell runs at 2²⁰ quanta per unit, where a one-quantum
// collection never arises. At 16 quanta the halvings reach single quanta
// within a few rounds, so splits keep 1-quantum collections home and the
// receive's one-quantum re-home fires — on the object engine through
// GenericClassifier, on the scale engine through the pool receive.
TEST(ScaleEquivalence, CoarseQuantaRehomes) {
  for_each_protocol([](auto protocol) {
    using Protocol = decltype(protocol);
    constexpr std::size_t n = Protocol::kNodes;
    const auto inputs = bimodal_inputs(n, 23);
    for (const GossipPattern pattern :
         {GossipPattern::push, GossipPattern::pull, GossipPattern::push_pull}) {
      EngineConfig config = base_config(n, 23);
      config.quanta_per_unit = 16;
      config.pattern = pattern;
      const std::string label = std::string(Protocol::kName) +
                                " coarse quanta, pattern " +
                                std::to_string(static_cast<int>(pattern));
      auto classic = Protocol::round_runner(Topology::complete(n), inputs,
                                            config);
      classic.run_rounds(kRounds);
      std::uint64_t rehomes = 0;
      for (const auto& node : classic.nodes()) {
        rehomes += node.classifier().stats().singleton_rehomes;
      }
      EXPECT_GT(rehomes, 0U) << label;
      auto scale = Protocol::scale_engine(Topology::complete(n), inputs,
                                          config);
      scale.run_rounds(kRounds);
      EXPECT_EQ(digest_nodes(classic), digest_engine(scale)) << label;
      EXPECT_EQ(metrics::total_quanta(classic.nodes()), scale.total_quanta())
          << label;
    }
  });
}

TEST(ScaleEquivalence, CrashModels) {
  for_each_protocol([](auto protocol) {
    constexpr std::size_t n = decltype(protocol)::kNodes;
    const auto inputs = bimodal_inputs(n, 5);
    for (const CrashSendPolicy policy :
         {CrashSendPolicy::avoid_crashed, CrashSendPolicy::drop_at_crashed}) {
      EngineConfig config = base_config(n, 5);
      config.crash_probability = 0.05;
      config.crash_send_policy = policy;
      config.pattern = GossipPattern::push_pull;
      expect_round_equivalence(protocol, Topology::complete(n), inputs, config,
                               policy == CrashSendPolicy::avoid_crashed
                                   ? "avoid_crashed"
                                   : "drop_at_crashed");
    }
  });
}

/// Runs `engine` traced for kRounds and returns its trace CSV.
template <typename Engine>
std::string trace_csv(Engine engine) {
  TraceRecorder trace;
  engine.set_trace(&trace);
  engine.run_rounds(kRounds);
  std::ostringstream csv;
  trace.write_csv(csv);
  return csv.str();
}

// A traced pool run records the object run's events byte for byte: the
// same walk, and each send's payload is the same collection count.
TEST(ScaleEquivalence, TracesMatch) {
  for_each_protocol([](auto protocol) {
    using Protocol = decltype(protocol);
    constexpr std::size_t n = Protocol::kNodes;
    const auto inputs = bimodal_inputs(n, 17);
    const Topology topology = Topology::complete(n);
    for (const GossipPattern pattern :
         {GossipPattern::push, GossipPattern::pull, GossipPattern::push_pull}) {
      for (const CrashSendPolicy policy :
           {CrashSendPolicy::avoid_crashed, CrashSendPolicy::drop_at_crashed}) {
        EngineConfig config = base_config(n, 17);
        config.pattern = pattern;
        config.crash_probability = 0.05;
        config.crash_send_policy = policy;
        config.message_loss_probability = 0.1;
        const std::string label =
            std::string(Protocol::kName) + " pattern " +
            std::to_string(static_cast<int>(pattern)) + " policy " +
            std::to_string(static_cast<int>(policy));
        const std::string object =
            trace_csv(Protocol::round_runner(topology, inputs, config));
        EXPECT_EQ(object,
                  trace_csv(Protocol::scale_engine(topology, inputs, config)))
            << label;
        for (const char* event : {",send,", ",deliver,", ",loss,", ",crash,"}) {
          EXPECT_NE(object.find(event), std::string::npos)
              << label << " records no" << event << "event";
        }
        // A pull from a crashed contact sends nothing to drop.
        if (policy == CrashSendPolicy::drop_at_crashed &&
            pattern != GossipPattern::pull) {
          EXPECT_NE(object.find(",dead_target,"), std::string::npos) << label;
        }
      }
    }
  });
}

TEST(ScaleEquivalence, SparseTopologies) {
  for_each_protocol([](auto protocol) {
    using Protocol = decltype(protocol);
    constexpr std::size_t n = Protocol::kNodes;
    const auto inputs = bimodal_inputs(n, 11);
    const EngineConfig config = base_config(n, 11);
    stats::Rng topo_rng(42);
    const Topology topologies[] = {
        Topology::ring(n),
        Topology::grid(Protocol::kGridRows, n / Protocol::kGridRows, true),
        Topology::random_geometric(n, 0.2, topo_rng),
        Topology::erdos_renyi(n, 0.08, topo_rng),
    };
    for (std::size_t t = 0; t < std::size(topologies); ++t) {
      expect_round_equivalence(protocol, topologies[t], inputs, config,
                               "topology " + std::to_string(t));
    }
  });
}

TEST(ScaleEquivalence, ParallelismInvariant) {
  const auto inputs = bimodal_inputs(kCentroidNodes, 13);
  EngineConfig sequential = base_config(kCentroidNodes, 13);
  sequential.pattern = GossipPattern::push_pull;
  EngineConfig threaded = sequential;
  threaded.parallelism = 3;

  auto engine_seq = gossip::make_centroid_scale_engine(
      Topology::complete(kCentroidNodes), inputs, sequential);
  engine_seq.run_rounds(kRounds);
  auto engine_par = gossip::make_centroid_scale_engine(
      Topology::complete(kCentroidNodes), inputs, threaded);
  engine_par.run_rounds(kRounds);
  EXPECT_EQ(digest_engine(engine_seq), digest_engine(engine_par));

  // And against the threaded classic runner.
  auto classic = shard::make_centroid_round_runner(
      Topology::complete(kCentroidNodes), inputs, threaded);
  classic.run_rounds(kRounds);
  EXPECT_EQ(digest_nodes(classic), digest_engine(engine_par));
}

TEST(ScaleEquivalence, GmParallelismInvariant) {
  const auto inputs = bimodal_inputs(kGmNodes, 17);
  EngineConfig sequential = base_config(kGmNodes, 17);
  EngineConfig threaded = sequential;
  threaded.parallelism = 3;

  auto engine_seq = gossip::make_gm_scale_engine(Topology::complete(kGmNodes),
                                                 inputs, sequential);
  engine_seq.run_rounds(10);
  auto engine_par = gossip::make_gm_scale_engine(Topology::complete(kGmNodes),
                                                 inputs, threaded);
  engine_par.run_rounds(10);
  EXPECT_EQ(digest_engine(engine_seq), digest_engine(engine_par));
}

// ---------------------------------------------------------------------------
// Contract 3: streaming metrics ≡ materializing metrics.
// ---------------------------------------------------------------------------

TEST(ScaleEquivalence, StreamingMetricsMatch) {
  const auto inputs = bimodal_inputs(kCentroidNodes, 19);
  const EngineConfig config = base_config(kCentroidNodes, 19);
  auto classic = shard::make_centroid_round_runner(
      Topology::complete(kCentroidNodes), inputs, config);
  classic.run_rounds(kRounds);
  auto scale = gossip::make_centroid_scale_engine(
      Topology::complete(kCentroidNodes), inputs, config);
  scale.run_rounds(kRounds);

  EXPECT_DOUBLE_EQ(
      metrics::max_disagreement_vs_first<summaries::CentroidPolicy>(
          classic.nodes()),
      metrics::streaming_max_disagreement<summaries::CentroidPolicy>(scale));
  EXPECT_EQ(metrics::total_quanta(classic.nodes()), scale.total_quanta());
}

// ---------------------------------------------------------------------------
// Scale smoke: 100k nodes under the normal ctest timeout.
// ---------------------------------------------------------------------------

TEST(ScaleEquivalence, Smoke100kCentroid) {
  constexpr std::size_t kBig = 100'000;
  const auto inputs = bimodal_inputs(kBig, 1);
  EngineConfig config = base_config(kBig, 1);
  config.parallelism = 0;  // one lane per hardware thread
  ASSERT_TRUE(config.use_soa());  // the default backend

  // TopologySpec's exact-factorization grid packing: 100000 → 250×400.
  config.topology.family = TopologyFamily::grid;
  config.topology.nodes = kBig;
  stats::Rng topo_rng(0);
  Topology grid = config.build_topology(topo_rng);
  ASSERT_EQ(grid.num_nodes(), kBig);
  auto engine =
      gossip::make_centroid_scale_engine(std::move(grid), inputs, config);
  engine.run_rounds(3);
  EXPECT_EQ(engine.round(), 3U);
  EXPECT_EQ(engine.alive_count(), kBig);
  // Exact conservation at 100k nodes: no quantum was minted or lost.
  EXPECT_EQ(engine.total_quanta(),
            static_cast<std::int64_t>(kBig) * config.quanta_per_unit);
  EXPECT_GE(metrics::streaming_mean_collections(engine), 1.0);
}

}  // namespace
}  // namespace ddc::sim
