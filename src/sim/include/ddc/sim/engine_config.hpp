// EngineConfig — the one configuration object behind every simulation.
//
// It carries every setting of a run exactly once: the round engines'
// options (it extends RoundRunnerOptions, so selection, pattern,
// environment seed, crash and loss probabilities and parallelism are its
// own fields), a declarative topology spec, the async timing, the
// engine/backend choice, and the protocol parameters of Algorithm 1 (k,
// the weight quantum, the protocol seed). Each engine has one factory,
// which takes it:
//
//   sim::EngineConfig config;
//   config.topology = {sim::TopologyFamily::geometric, 100'000};
//   auto engine = gossip::make_centroid_scale_engine(
//       config.build_topology(rng), inputs, config);
//
// The round engine is shard::ShardEngine; its factories live in
// shard/factories.hpp (object storage: one shard or a sharded cluster)
// and gossip/scale.hpp (pool storage, the SoA backend). The async
// factories live in gossip/runners.hpp; cli::parse_engine_config builds
// an EngineConfig from command-line flags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include <ddc/sim/async_runner.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// The topology families the evaluation and ablations use. `torus` is
/// grid with wrap-around, kept distinct because the CLI names it.
enum class TopologyFamily {
  complete,
  ring,
  directed_ring,
  line,
  star,
  grid,
  torus,
  geometric,
  erdos_renyi,
};

/// Parses the CLI spelling (complete | ring | dring | line | star | grid |
/// torus | geometric | er). Throws ddc::ConfigError on anything else.
[[nodiscard]] TopologyFamily parse_topology_family(const std::string& name);

/// The CLI spelling of a family (inverse of parse_topology_family).
[[nodiscard]] const char* topology_family_name(TopologyFamily family);

/// Declarative topology description — family plus size plus the family's
/// shape parameters, buildable on demand (and on every shard of a
/// distributed run, since construction is deterministic given the RNG).
struct TopologySpec {
  TopologyFamily family = TopologyFamily::complete;
  std::size_t nodes = 200;
  /// Connection radius for `geometric`; 0 selects the ddcsim-era default
  /// max(0.15, 2/√n).
  double radius = 0.0;
  /// Edge probability for `erdos_renyi`; 0 selects the ddcsim-era default
  /// max(0.05, 8/n).
  double edge_probability = 0.0;

  /// Builds the graph. Only `geometric` and `erdos_renyi` consume RNG
  /// draws; deterministic families ignore `rng` entirely, so the draw
  /// stream is identical to the historical per-tool construction code.
  [[nodiscard]] Topology build(stats::Rng& rng) const;

  /// The radius/probability actually used (resolving the 0 defaults).
  [[nodiscard]] double resolved_radius() const;
  [[nodiscard]] double resolved_edge_probability() const;
};

/// Which node storage backs a round-mode run of the one-shard
/// shard::ShardEngine. The async factories have only the object engine
/// and ignore this choice.
enum class EngineBackend {
  /// Object storage: one heap-allocated protocol object per node
  /// (shard/factories.hpp). Serves protocols without a pool binding
  /// (push-sum) and event traces.
  object,
  /// Pool storage: struct-of-arrays pools + a message arena
  /// (gossip/scale.hpp). Bit-identical to `object` for the centroid and
  /// GM protocols, and faster and smaller at every measured size.
  soa,
};

/// Timing parameters of the async engine (read by async_options only).
struct AsyncTiming {
  /// Mean interval between a node's gossip emissions; actual intervals
  /// are uniform in [0.5, 1.5]× this, independently per node per tick.
  double mean_tick_interval = 1.0;
  /// Message delays are uniform in [min_delay, max_delay].
  double min_delay = 0.05;
  double max_delay = 2.0;
};

/// One configuration object for a whole simulation. Extends
/// RoundRunnerOptions, so the gossip knobs (selection, pattern,
/// environment seed), the fault model (crash and loss probabilities,
/// crash send policy) and parallelism are this object's own fields. The
/// async engine models the paper's reliable crash-free channels and
/// ignores the fault fields.
struct EngineConfig : RoundRunnerOptions {
  TopologySpec topology;
  EngineBackend backend = EngineBackend::soa;
  AsyncTiming async;

  // Protocol-layer parameters (gossip::node_options reads them).
  /// Max collections per node (the paper's k).
  std::size_t k = 2;
  /// Weight quanta per unit weight (the paper's 1/q).
  std::int64_t quanta_per_unit = std::int64_t{1} << 20;
  /// Seed for node-local randomness (EM restarts). Kept separate from the
  /// inherited environment `seed` so protocol and environment streams
  /// never interfere — ddcsim historically sets protocol_seed = --seed
  /// and seed = --seed + 1.
  std::uint64_t protocol_seed = 1;
  /// Carry each collection's auxiliary mixture-space vector (the
  /// dashed-frame code of Algorithm 1, O(n) per collection) so Lemma 1
  /// can be checked at runtime. Object storage only: the pools cannot
  /// hold it, so the scale-engine factories reject it.
  bool track_aux = false;

  /// Engine options sliced out for the classic runners.
  [[nodiscard]] RoundRunnerOptions round_options() const {
    return static_cast<const RoundRunnerOptions&>(*this);
  }
  [[nodiscard]] AsyncRunnerOptions async_options() const;

  /// Builds the configured topology (see TopologySpec::build).
  [[nodiscard]] Topology build_topology(stats::Rng& rng) const;

  /// True when a round-mode run asks for the SoA backend (pool storage).
  [[nodiscard]] bool use_soa() const noexcept;

  /// Throws ddc::ConfigError on out-of-range values (probabilities,
  /// nodes < 2 or above kMaxNodes = 2^32 − 2, k = 0, quanta_per_unit < 1,
  /// a total weight nodes × quanta_per_unit above 2^62, bad async
  /// timing).
  void validate() const;
};

}  // namespace ddc::sim
