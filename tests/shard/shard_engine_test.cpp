// Shard-count invariance suite: the sharded cluster engine against the
// one-shard ShardEngine with object storage (the object engine) and with
// pool storage (the SoA engine), by FNV-1a digest of every node's
// wire-encoded final classification.
//
// Two bit-identity contracts:
//
//   1. ShardCluster(S) ≡ ShardCluster(1) for S ∈ {2, 4, 8}, across
//      3 seeds × {centroid, gm} × {lossless, loss 0.1} × {contiguous,
//      edgecut} ownership maps, plus gossip patterns, selection
//      policies, crash models, sparse topologies and injected link loss
//      (the batch retransmit layer must absorb dropped frames without
//      changing a bit).
//   2. ShardCluster(S) ≡ the object engine (make_*_round_runner: one
//      shard, no transport) on every cell, lossy ones included: every
//      engine runs one sim::RoundPlan, whose loss verdict is a stateless
//      hash of (seed, round, leg, initiator), so the shards and both
//      storages reach the same verdict for every message. A push-pull +
//      crash + loss cell also pins object storage ≡ pool storage ≡
//      ShardCluster(4), and a GM cell with degenerate (all-zero)
//      covariances pins the same three-way identity plus exact weight
//      conservation. A 4-shard cell at
//      parallelism 4 pins thread-count invariance of the split prepare
//      (boundary, then interior chunks between polls). See DESIGN.md
//      "Sharded cluster engine".
//
// A 2-shard × 512-node smoke keeps the batching claim honest (mean
// messages per frame > 1) and doubles as the CI multi-shard gate.
#include <ddc/shard/factories.hpp>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/common/error.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/wire/framing.hpp>
#include <ddc/wire/serialize.hpp>

namespace ddc::shard {
namespace {

/// FNV-1a 64-bit over a byte string (same digest as the scale suite).
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
std::string digest_runner(const Runner& runner) {
  Digest digest;
  for (const auto& node : runner.nodes()) {
    digest.absorb(wire::encode_classification(node.classification()));
  }
  return digest.hex();
}

template <typename Cluster>
std::string digest_cluster(const Cluster& cluster) {
  Digest digest;
  for (sim::NodeId i = 0; i < cluster.map().num_nodes(); ++i) {
    digest.absorb(wire::encode_classification(cluster.node(i).classification()));
  }
  return digest.hex();
}

constexpr std::size_t kGmNodes = 48;
constexpr std::size_t kCentroidNodes = 200;
constexpr std::size_t kRounds = 20;

sim::EngineConfig base_config(std::size_t nodes, std::uint64_t seed) {
  sim::EngineConfig config;
  config.topology.family = sim::TopologyFamily::complete;
  config.topology.nodes = nodes;
  config.k = 2;
  config.protocol_seed = seed + 100;
  config.seed = seed + 200;
  return config;
}

// ---------------------------------------------------------------------------
// Contract 1 + 2: the equivalence matrix.
// ---------------------------------------------------------------------------

TEST(ShardEquivalence, CentroidMatrix) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double loss : {0.0, 0.1}) {
      sim::EngineConfig config = base_config(kCentroidNodes, seed);
      config.message_loss_probability = loss;
      const auto inputs = bimodal_inputs(kCentroidNodes, seed);
      const auto topology = sim::Topology::complete(kCentroidNodes);

      auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
      mono.run_rounds(kRounds);
      const std::string reference = digest_cluster(mono);

      for (const ShardId shards : {ShardId{2}, ShardId{4}, ShardId{8}}) {
        for (const Partitioner partitioner :
             {Partitioner::contiguous, Partitioner::edgecut}) {
          auto cluster = make_centroid_shard_cluster(topology, inputs, config,
                                                     shards, {}, partitioner);
          cluster.run_rounds(kRounds);
          EXPECT_EQ(digest_cluster(cluster), reference)
              << "centroid seed=" << seed << " loss=" << loss
              << " shards=" << shards
              << " map=" << partitioner_name(partitioner);
        }
      }

      // The cluster is a pure re-execution of the object engine, loss
      // verdicts included.
      auto runner = make_centroid_round_runner(topology, inputs, config);
      runner.run_rounds(kRounds);
      EXPECT_EQ(reference, digest_runner(runner))
          << "centroid vs object engine seed=" << seed << " loss=" << loss;
    }
  }
}

TEST(ShardEquivalence, GmMatrix) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const double loss : {0.0, 0.1}) {
      sim::EngineConfig config = base_config(kGmNodes, seed);
      config.message_loss_probability = loss;
      const auto inputs = bimodal_inputs(kGmNodes, seed);
      const auto topology = sim::Topology::complete(kGmNodes);

      auto mono = make_gm_shard_cluster(topology, inputs, config, 1);
      mono.run_rounds(kRounds);
      const std::string reference = digest_cluster(mono);

      for (const ShardId shards : {ShardId{2}, ShardId{4}, ShardId{8}}) {
        for (const Partitioner partitioner :
             {Partitioner::contiguous, Partitioner::edgecut}) {
          auto cluster = make_gm_shard_cluster(topology, inputs, config,
                                               shards, {}, {}, partitioner);
          cluster.run_rounds(kRounds);
          EXPECT_EQ(digest_cluster(cluster), reference)
              << "gm seed=" << seed << " loss=" << loss << " shards=" << shards
              << " map=" << partitioner_name(partitioner);
        }
      }

      auto runner = make_gm_round_runner(topology, inputs, config);
      runner.run_rounds(kRounds);
      EXPECT_EQ(reference, digest_runner(runner))
          << "gm vs object engine seed=" << seed << " loss=" << loss;
    }
  }
}

TEST(ShardEquivalence, LossyPushPullWithCrashesMatchesEveryEngine) {
  // One lossy cell through every engine shape: the object engine, the
  // SoA pools and a 4-shard cluster must agree on every loss verdict,
  // every reply and every crash draw.
  sim::EngineConfig config = base_config(kCentroidNodes, 4);
  config.pattern = sim::GossipPattern::push_pull;
  config.crash_probability = 0.05;
  config.message_loss_probability = 0.1;
  const auto inputs = bimodal_inputs(kCentroidNodes, 4);
  const auto topology = sim::Topology::complete(kCentroidNodes);

  auto runner = make_centroid_round_runner(topology, inputs, config);
  runner.run_rounds(kRounds);
  auto soa = gossip::make_centroid_scale_engine(topology, inputs, config);
  soa.run_rounds(kRounds);
  auto cluster = make_centroid_shard_cluster(topology, inputs, config, 4);
  cluster.run_rounds(kRounds);

  Digest soa_digest;
  soa.for_each_classification([&](sim::NodeId, const auto& classification) {
    soa_digest.absorb(wire::encode_classification(classification));
  });
  const std::string reference = digest_runner(runner);
  EXPECT_EQ(soa_digest.hex(), reference);
  EXPECT_EQ(digest_cluster(cluster), reference);
  EXPECT_LT(runner.alive_count(), kCentroidNodes);  // crashes did fire
}

// Degenerate covariance, a failure path of the GM instantiation: when
// every collection holds copies of one point, every summary's covariance
// is exactly zero. EM, the partition and the merge must still agree
// across the object engine, the SoA pools and a cluster bit for bit,
// conserve weight, and keep every mean on an input point.
TEST(ShardEquivalence, GmDegenerateCovarianceMatchesEveryEngine) {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kDegenerateRounds = 30;
  const auto topology = sim::Topology::complete(kNodes);
  for (const std::size_t d : {1, 2}) {
    linalg::Vector a(d);
    linalg::Vector b(d);
    for (std::size_t c = 0; c < d; ++c) {
      a[c] = 1.5 + static_cast<double>(c);
      b[c] = -7.25 * static_cast<double>(c + 1);
    }
    for (const bool alternating : {false, true}) {
      for (const double loss : {0.0, 0.1}) {
        std::vector<linalg::Vector> points = {a};
        if (alternating) points.push_back(b);
        std::vector<linalg::Vector> inputs;
        for (std::size_t i = 0; i < kNodes; ++i) {
          inputs.push_back(points[i % points.size()]);
        }
        sim::EngineConfig config = base_config(kNodes, 9);
        config.pattern = sim::GossipPattern::push_pull;
        config.message_loss_probability = loss;
        std::ostringstream label;
        label << "d=" << d << " points=" << points.size() << " loss=" << loss;

        auto runner = make_gm_round_runner(topology, inputs, config);
        runner.run_rounds(kDegenerateRounds);
        auto soa = gossip::make_gm_scale_engine(topology, inputs, config);
        soa.run_rounds(kDegenerateRounds);
        auto cluster = make_gm_shard_cluster(topology, inputs, config, 2);
        cluster.run_rounds(kDegenerateRounds);

        std::vector<std::vector<std::byte>> soa_bytes;
        soa.for_each_classification([&](sim::NodeId, const auto& c) {
          soa_bytes.push_back(wire::encode_classification(c));
        });
        std::int64_t quanta = 0;
        double deviation = 0.0;
        for (sim::NodeId i = 0; i < kNodes; ++i) {
          const auto& reference = runner.nodes()[i].classification();
          const auto bytes = wire::encode_classification(reference);
          const auto& sharded = cluster.node(i).classification();
          EXPECT_EQ(soa_bytes[i], bytes) << label.str() << ", node " << i;
          EXPECT_EQ(wire::encode_classification(sharded), bytes)
              << label.str() << ", node " << i;
          quanta += reference.total_weight().quanta();
          for (const auto& collection : reference) {
            const stats::Gaussian& g = collection.summary;
            double to_input = std::numeric_limits<double>::infinity();
            for (const linalg::Vector& p : points) {
              to_input = std::min(to_input, linalg::norm_inf(g.mean() - p));
            }
            deviation = std::max(deviation, to_input);
            for (std::size_t r = 0; r < d; ++r) {
              for (std::size_t c = 0; c < d; ++c) {
                deviation = std::max(deviation, std::abs(g.cov()(r, c)));
              }
            }
          }
        }
        const std::int64_t total =
            static_cast<std::int64_t>(kNodes) * config.quanta_per_unit;
        if (loss == 0.0) {
          EXPECT_EQ(quanta, total) << label.str();
        }
        EXPECT_LE(deviation, 1e-12) << label.str();
      }
    }
  }
}

/// Per shard, the owned nodes that `rounds` rounds of the global plan
/// give a message across a shard edge — an outbound forward (patterns
/// that push), or a reply owed to a remote initiator (patterns that
/// pull, live responders only) — summed over the rounds. Replays a
/// replica of the plan and reads only its targets and alive flags.
std::vector<std::uint64_t> expected_boundary_nodes(
    const sim::Topology& topology, const ShardMap& map,
    const sim::RoundRunnerOptions& options, std::size_t rounds) {
  const std::size_t n = topology.num_nodes();
  const bool pushes = options.pattern != sim::GossipPattern::pull;
  const bool pulls = options.pattern != sim::GossipPattern::push;
  sim::RoundPlan plan(options, n);
  std::vector<std::uint64_t> counts(map.num_shards(), 0);
  for (std::size_t r = 0; r < rounds; ++r) {
    plan.plan(topology, nullptr);
    for (sim::NodeId g = 0; g < n; ++g) {
      const ShardId home = map.shard_of(g);
      const sim::NodeId t = plan.target(g);
      bool boundary = pushes && t != sim::kNoTarget && map.shard_of(t) != home;
      for (sim::NodeId i = 0; i < n && pulls && plan.alive(g); ++i) {
        boundary = boundary || (plan.target(i) == g && map.shard_of(i) != home);
      }
      counts[home] += boundary ? 1 : 0;
    }
    plan.end_round();
  }
  return counts;
}

TEST(ShardEquivalence, PatternsSelectionCrashesAndSparseTopologies) {
  struct Case {
    sim::GossipPattern pattern;
    sim::NeighborSelection selection;
    double crash;
    sim::CrashSendPolicy policy;
  };
  const Case cases[] = {
      {sim::GossipPattern::push_pull, sim::NeighborSelection::uniform_random,
       0.0, sim::CrashSendPolicy::avoid_crashed},
      {sim::GossipPattern::pull, sim::NeighborSelection::round_robin, 0.0,
       sim::CrashSendPolicy::avoid_crashed},
      {sim::GossipPattern::push, sim::NeighborSelection::uniform_random, 0.05,
       sim::CrashSendPolicy::avoid_crashed},
      {sim::GossipPattern::push_pull, sim::NeighborSelection::round_robin,
       0.05, sim::CrashSendPolicy::drop_at_crashed},
  };
  const auto topologies = {sim::Topology::grid(10, 12, false),
                           sim::Topology::ring(120)};
  for (const Case& c : cases) {
    for (const auto& topology : topologies) {
      sim::EngineConfig config = base_config(120, 7);
      config.pattern = c.pattern;
      config.selection = c.selection;
      config.crash_probability = c.crash;
      config.crash_send_policy = c.policy;
      const auto inputs = bimodal_inputs(120, 7);

      auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
      mono.run_rounds(kRounds);
      const std::string reference = digest_cluster(mono);

      for (const Partitioner partitioner :
           {Partitioner::contiguous, Partitioner::edgecut}) {
        auto cluster = make_centroid_shard_cluster(topology, inputs, config, 3,
                                                   {}, partitioner);
        cluster.run_rounds(kRounds);
        std::ostringstream label;
        label << "pattern=" << static_cast<int>(c.pattern)
              << " selection=" << static_cast<int>(c.selection)
              << " crash=" << c.crash
              << " map=" << partitioner_name(partitioner);
        EXPECT_EQ(digest_cluster(cluster), reference) << label.str();
        // The boundary split prepares exactly the nodes the plan sends
        // across a shard edge.
        const std::vector<std::uint64_t> boundary = expected_boundary_nodes(
            topology, cluster.map(), config.round_options(), kRounds);
        std::uint64_t total = 0;
        for (ShardId s = 0; s < cluster.num_shards(); ++s) {
          EXPECT_EQ(cluster.engine(s).stats().boundary_nodes, boundary[s])
              << label.str() << " shard=" << s;
          total += boundary[s];
        }
        EXPECT_GT(total, 0u) << label.str();
      }

      // Lossless/crashy runs still match the object engine exactly
      // (crash draws replay the same env stream).
      auto runner = make_centroid_round_runner(topology, inputs, config);
      runner.run_rounds(kRounds);
      EXPECT_EQ(reference, digest_runner(runner));
    }
  }
}

/// Runs a 4-shard cluster at `parallelism` threads per shard, the
/// interior prepared in chunks of 4 between transport polls, and checks
/// it against `reference` (the object engine's digest).
template <typename Cluster, typename MakeNodes>
void expect_parallel_cluster_matches(const std::string& reference,
                                     const sim::Topology& topology,
                                     sim::EngineConfig config,
                                     MakeNodes make_nodes,
                                     const std::string& label) {
  for (const Partitioner partitioner :
       {Partitioner::contiguous, Partitioner::edgecut}) {
    for (const std::size_t parallelism : {1, 4}) {
      config.parallelism = parallelism;
      ShardEngineOptions options = shard_options(config);
      options.partitioner = partitioner;
      options.overlap_chunk = 4;
      Cluster cluster(topology, make_nodes(config), 4, std::move(options));
      cluster.run_rounds(kRounds);
      EXPECT_EQ(digest_cluster(cluster), reference)
          << label << " parallelism=" << parallelism
          << " map=" << partitioner_name(partitioner);
      std::uint64_t interior_polls = 0;
      for (ShardId s = 0; s < 4; ++s) {
        interior_polls += cluster.engine(s).stats().polls_during_compute;
      }
      EXPECT_GT(interior_polls, 0UL) << label;  // interior chunks did run
    }
  }
}

TEST(ShardEquivalence, ParallelShardsMatchSequentialAndObjectEngine) {
  // Prepare runs under parallel_for twice per round on a multi-shard map
  // (boundary, then interior chunks), absorb once: 4 shards at 4 threads
  // ≡ 4 shards at 1 thread ≡ the object engine, on a grid whose shards
  // hold both boundary and interior nodes.
  const auto lossy_crashy = [](std::size_t nodes) {
    sim::EngineConfig config = base_config(nodes, 12);
    config.pattern = sim::GossipPattern::push_pull;
    config.message_loss_probability = 0.1;
    config.crash_probability = 0.05;
    return config;
  };
  {
    const sim::EngineConfig config = lossy_crashy(kCentroidNodes);
    const auto inputs = bimodal_inputs(kCentroidNodes, 12);
    const auto topology = sim::Topology::grid(25, 8, false);
    auto runner = make_centroid_round_runner(topology, inputs, config);
    runner.run_rounds(kRounds);
    EXPECT_LT(runner.alive_count(), kCentroidNodes);  // crashes did fire
    expect_parallel_cluster_matches<CentroidShardCluster>(
        digest_runner(runner), topology, config,
        [&](const sim::EngineConfig& c) {
          return gossip::make_centroid_nodes(inputs, c);
        },
        "centroid");
  }
  {
    const sim::EngineConfig config = lossy_crashy(kGmNodes);
    const auto inputs = bimodal_inputs(kGmNodes, 12);
    const auto topology = sim::Topology::grid(6, 8, false);
    auto runner = make_gm_round_runner(topology, inputs, config);
    runner.run_rounds(kRounds);
    expect_parallel_cluster_matches<GmShardCluster>(
        digest_runner(runner), topology, config,
        [&](const sim::EngineConfig& c) {
          return gossip::make_gm_nodes(inputs, c);
        },
        "gm");
  }
}

// The storage owns the wire format: classifications of a summary domain
// with a wire::SummaryCodec have one; push-sum, dkmeans and pool storage
// do not, so they stay on one shard.
static_assert(ObjectStorage<gossip::GmNode>::kWire);
static_assert(ObjectStorage<gossip::CentroidNode>::kWire);
static_assert(!ObjectStorage<gossip::PushSumNode>::kWire);
static_assert(!ObjectStorage<gossip::DistributedKMeansNode>::kWire);
static_assert(!PoolStorage<gossip::CentroidScaleProtocol>::kWire);

TEST(ShardContracts, OneShardFeaturesRejectMultiShardMaps) {
  constexpr std::size_t kNodes = 8;
  const auto topology = sim::Topology::complete(kNodes);
  const auto inputs = bimodal_inputs(kNodes, 13);
  const ShardMap map(kNodes, 2);
  net::LoopbackNetwork fabric(2);

  // A node type with no wire format cannot send across a shard edge.
  const std::vector<linalg::Vector> owned(inputs.begin(),
                                          inputs.begin() + map.size(0));
  EXPECT_THROW((ShardEngine<gossip::PushSumNode>(
                   topology, map, 0, gossip::make_push_sum_nodes(owned),
                   &fabric.endpoint(0))),
               ContractViolation);

  // Tracing records a round's events in one place: one shard only.
  auto engine =
      make_centroid_shard_engine(topology, inputs, base_config(kNodes, 13), 0,
                                 2, &fabric.endpoint(0));
  sim::TraceRecorder trace;
  EXPECT_THROW(engine.set_trace(&trace), ContractViolation);

  // Pool storage has no row codec: one shard only.
  EXPECT_THROW((ShardEngine<gossip::CentroidScaleProtocol>(
                   topology, map,
                   gossip::CentroidScaleProtocol(2, base_config(kNodes, 13)),
                   {}, [&](sim::NodeId i) { return inputs[i]; })),
               ContractViolation);
}

TEST(ShardEquivalence, InjectedLinkLossIsAbsorbedByRetransmits) {
  // Loopback frames (batches AND acks) vanish, and on the second channel
  // also spend up to 3 ticks in flight, so a round's batches and acks
  // arrive out of order and across polls. The seq/ack layer must recover
  // every one, leaving the digest bit-identical to the clean monolithic
  // run.
  sim::EngineConfig config = base_config(kCentroidNodes, 11);
  const auto inputs = bimodal_inputs(kCentroidNodes, 11);
  const auto topology = sim::Topology::complete(kCentroidNodes);

  auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
  mono.run_rounds(kRounds);

  const net::LoopbackOptions channels[] = {
      {.seed = 99, .loss_probability = 0.3},
      {.seed = 99,
       .loss_probability = 0.1,
       .min_delay_ticks = 0,
       .max_delay_ticks = 3},
  };
  for (const net::LoopbackOptions& channel : channels) {
    auto cluster =
        make_centroid_shard_cluster(topology, inputs, config, 4, channel);
    cluster.run_rounds(kRounds);

    EXPECT_EQ(digest_cluster(cluster), digest_cluster(mono))
        << "loss=" << channel.loss_probability
        << " max_delay=" << channel.max_delay_ticks;
    std::uint64_t retransmits = 0;
    for (ShardId s = 0; s < 4; ++s) {
      retransmits += cluster.engine(s).stats().retransmits;
    }
    EXPECT_GT(retransmits, 0UL) << "loss=" << channel.loss_probability;
  }
}

// ---------------------------------------------------------------------------
// The CI multi-shard smoke: 2 shards × 512 nodes, cross-checked against
// monolithic, with the batching claim asserted.
// ---------------------------------------------------------------------------

TEST(ShardSmoke, TwoShards512NodesMatchMonolithicAndBatch) {
  constexpr std::size_t kNodes = 512;
  sim::EngineConfig config = base_config(kNodes, 21);
  const auto inputs = bimodal_inputs(kNodes, 21);
  const auto topology = sim::Topology::grid(16, 32, false);

  auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
  mono.run_rounds(10);

  auto cluster = make_centroid_shard_cluster(topology, inputs, config, 2);
  cluster.run_rounds(10);

  EXPECT_EQ(digest_cluster(cluster), digest_cluster(mono));

  // Cross-shard traffic must actually batch: many logical messages per
  // frame on average (one frame per peer per round, barrier included).
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  for (ShardId s = 0; s < 2; ++s) {
    frames += cluster.engine(s).stats().batch_frames_sent;
    records += cluster.engine(s).stats().batch_records_sent;
  }
  ASSERT_GT(frames, 0UL);
  EXPECT_GT(static_cast<double>(records) / static_cast<double>(frames), 1.0);
}

// ---------------------------------------------------------------------------
// Fault handling: a silent shard times out of the barrier; a lagging
// shard catches up by replaying rounds and rejoins.
// ---------------------------------------------------------------------------

TEST(ShardFaults, SilentPeerTimesOutAndLaggardRejoins) {
  constexpr std::size_t kNodes = 60;
  sim::EngineConfig config = base_config(kNodes, 5);
  const auto inputs = bimodal_inputs(kNodes, 5);
  const auto topology = sim::Topology::complete(kNodes);

  net::LoopbackNetwork fabric(2);
  ShardEngineOptions exchange;
  exchange.resend_interval_polls = 8;
  exchange.max_exchange_polls = 64;
  auto e0 = make_centroid_shard_engine(topology, inputs, config, 0, 2,
                                       &fabric.endpoint(0), exchange);
  auto e1 = make_centroid_shard_engine(topology, inputs, config, 1, 2,
                                       &fabric.endpoint(1), exchange);

  // Round 0: healthy lockstep.
  const auto drive_both = [&] {
    e0.begin_round();
    e1.begin_round();
    bool d0 = false;
    bool d1 = false;
    for (int iter = 0; iter < 10000 && !(d0 && d1); ++iter) {
      fabric.advance();
      if (!d0) d0 = e0.try_complete_round();
      if (!d1) d1 = e1.try_complete_round();
    }
    ASSERT_TRUE(d0 && d1);
  };
  drive_both();
  EXPECT_TRUE(e0.peer_shard_alive(1));

  // Shard 1 goes silent; shard 0 must time out and keep making rounds.
  for (int r = 0; r < 2; ++r) {
    e0.begin_round();
    bool done = false;
    for (int iter = 0; iter < 10000 && !done; ++iter) {
      fabric.advance();
      done = e0.try_complete_round();
    }
    ASSERT_TRUE(done);
  }
  EXPECT_EQ(e0.round(), 3UL);
  EXPECT_FALSE(e0.peer_shard_alive(1));
  EXPECT_GT(e0.stats().peer_timeouts, 0UL);

  // Shard 1 wakes up two rounds behind. It catches up by replaying its
  // rounds (the global plan is a pure function of the seed, so its env
  // state stays consistent) and the cluster relocks.
  const std::size_t target = 5;
  bool open0 = false;
  bool open1 = false;
  for (int iter = 0; iter < 200000; ++iter) {
    if (e0.round() >= target && e1.round() >= target) break;
    if (!open0 && e0.round() < target) {
      e0.begin_round();
      open0 = true;
    }
    if (!open1 && e1.round() < target) {
      e1.begin_round();
      open1 = true;
    }
    fabric.advance();
    if (open0 && e0.try_complete_round()) open0 = false;
    if (open1 && e1.try_complete_round()) open1 = false;
  }
  EXPECT_EQ(e0.round(), target);
  EXPECT_EQ(e1.round(), target);
  EXPECT_TRUE(e0.peer_shard_alive(1));
  EXPECT_TRUE(e1.peer_shard_alive(0));
}

TEST(ShardFaults, CorruptAndForeignFramesAreCountedAndDropped) {
  // Every round, shard 1's endpoint also hands shard 0 three frames the
  // exchange must survive: raw garbage (fails the envelope), a batch
  // whose header claims to come from shard 0 (fails the sender check)
  // and a gossip-kind frame (not the shard exchange's; ignored). The two
  // corrupt ones are counted, none of them changes a bit of state.
  constexpr std::size_t kNodes = 60;
  constexpr std::size_t kFaultRounds = 10;
  sim::EngineConfig config = base_config(kNodes, 6);
  const auto inputs = bimodal_inputs(kNodes, 6);
  const auto topology = sim::Topology::complete(kNodes);

  auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
  mono.run_rounds(kFaultRounds);

  auto cluster = make_centroid_shard_cluster(topology, inputs, config, 2);
  net::LoopbackTransport& intruder = cluster.network().endpoint(1);
  for (std::size_t r = 0; r < kFaultRounds; ++r) {
    intruder.send(0, {std::byte{0x00}, std::byte{0x11}, std::byte{0xff}});
    intruder.send(0, wire::encode_frame(wire::FrameKind::batch, 1, r + 1,
                                        wire::encode_batch(r, 0, 2, {})));
    intruder.send(0, wire::encode_frame(wire::FrameKind::gossip, 1, r + 1,
                                        std::vector<std::byte>{std::byte{1}}));
    cluster.run_round();
  }

  EXPECT_EQ(digest_cluster(cluster), digest_cluster(mono));
  EXPECT_EQ(cluster.engine(0).stats().decode_errors, 2 * kFaultRounds);
  EXPECT_EQ(cluster.engine(1).stats().decode_errors, 0UL);
}

// ---------------------------------------------------------------------------
// Buffer lifetime: a batch that arrives a round early is kept whole with
// its frame and promoted at the next round. Run under ASan (check.sh
// gate 7), a record span left pointing into a freed frame fails here.
// ---------------------------------------------------------------------------

/// Shard 0's endpoint, with the frames from one peer held back while
/// `hold` is set and handed over, in arrival order, once it clears.
class HoldingTransport final : public net::Transport {
 public:
  HoldingTransport(net::Transport& inner, net::PeerId held)
      : inner_(inner), held_(held) {}

  bool hold = false;

  [[nodiscard]] net::PeerId self() const override { return inner_.self(); }
  [[nodiscard]] std::size_t num_peers() const override {
    return inner_.num_peers();
  }
  void send(net::PeerId to, const std::vector<std::byte>& frame) override {
    inner_.send(to, frame);
  }
  [[nodiscard]] std::vector<net::Packet> receive() override {
    std::vector<net::Packet> out;
    if (!hold) out.swap(stash_);
    for (net::Packet& packet : inner_.receive()) {
      (hold && packet.from == held_ ? stash_ : out)
          .push_back(std::move(packet));
    }
    return out;
  }
  [[nodiscard]] const net::LinkStats& stats(net::PeerId peer) const override {
    return inner_.stats(peer);
  }

 private:
  net::Transport& inner_;
  net::PeerId held_;
  std::vector<net::Packet> stash_;
};

TEST(ShardBuffers, BatchBufferedOneRoundAheadIsPromotedIntact) {
  // Shard 2's frames to shard 0 are held back every round until shard
  // 1 has finished the round and sent its next batch, which shard 0
  // must buffer one round ahead, frame and all, and promote when it
  // begins that round. The run must match the one-shard engine.
  constexpr std::size_t kNodes = 90;
  constexpr std::size_t kTarget = 12;
  sim::EngineConfig config = base_config(kNodes, 9);
  config.pattern = sim::GossipPattern::push_pull;
  const auto inputs = bimodal_inputs(kNodes, 9);
  const auto topology = sim::Topology::complete(kNodes);

  auto mono = make_centroid_shard_cluster(topology, inputs, config, 1);
  mono.run_rounds(kTarget);

  net::LoopbackNetwork fabric(3);
  HoldingTransport gate(fabric.endpoint(0), 2);
  std::vector<CentroidShardEngine> engines;
  for (ShardId s = 0; s < 3; ++s) {
    engines.push_back(make_centroid_shard_engine(
        topology, inputs, config, s, 3,
        s == 0 ? static_cast<net::Transport*>(&gate) : &fabric.endpoint(s)));
  }
  std::vector<bool> open(3, false);
  std::size_t rounds_ahead = 0;  // rounds shard 1 began before shard 0
  for (int iter = 0; iter < 100000; ++iter) {
    if (engines[0].round() == kTarget && engines[2].round() == kTarget &&
        engines[1].round() == kTarget) {
      break;
    }
    for (ShardId s = 0; s < 3; ++s) {
      if (!open[s] && engines[s].round() < kTarget) {
        engines[s].begin_round();
        open[s] = true;
        if (s == 1 && open[0] && engines[1].round() > engines[0].round()) {
          ++rounds_ahead;
        }
      }
    }
    // Held until shard 1 has begun the next round: shard 0 then reads
    // shard 2's batch and, in the same poll, shard 1's early one.
    gate.hold = engines[1].round() == engines[0].round();
    fabric.advance();
    for (ShardId s = 0; s < 3; ++s) {
      if (open[s] && engines[s].try_complete_round()) open[s] = false;
    }
  }
  for (ShardId s = 0; s < 3; ++s) {
    ASSERT_EQ(engines[s].round(), kTarget) << "shard " << s;
    EXPECT_EQ(engines[s].stats().decode_errors, 0U);
    EXPECT_EQ(engines[s].stats().unplanned_records, 0U);
  }
  EXPECT_EQ(rounds_ahead, kTarget - 1);

  Digest digest;
  for (sim::NodeId i = 0; i < kNodes; ++i) {
    const ShardId s = engines[0].map().shard_of(i);
    digest.absorb(
        wire::encode_classification(engines[s].classification_of(i)));
  }
  EXPECT_EQ(digest.hex(), digest_cluster(mono));
}

}  // namespace
}  // namespace ddc::shard
