// Factory helpers for sharded runs, mirroring gossip/runners.hpp.
//
// The node-construction discipline is the load-bearing part: a shard
// builds ONLY its owned range, but every per-node stream derives from
// the protocol seed by GLOBAL node id — exactly what
// gossip::make_*_nodes does for the monolithic engines — so a node's
// randomness does not depend on which shard hosts it, and the
// equivalence matrix (1 vs S shards) can demand bit-identical states.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/gossip/runners.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/net/transport.hpp>
#include <ddc/shard/cluster.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/engine_config.hpp>
#include <ddc/wire/serialize.hpp>

namespace ddc::shard {

/// The ShardEngine codec for classifier nodes (Message =
/// core::Classification<Summary>). decode throws wire::DecodeError on a
/// malformed payload; the engine counts and drops those records.
/// Auxiliary vectors never travel — they are diagnostic-only and O(n).
template <typename Summary>
struct ClassificationCodec {
  using Message = core::Classification<Summary>;

  [[nodiscard]] static std::vector<std::byte> encode(const Message& message) {
    return wire::encode_classification(message);
  }
  [[nodiscard]] static Message decode(std::span<const std::byte> payload) {
    return wire::decode_classification<Summary>(payload);
  }
};

using GmCodec = ClassificationCodec<stats::Gaussian>;
using CentroidCodec = ClassificationCodec<linalg::Vector>;
using GmShardEngine = ShardEngine<gossip::GmNode, GmCodec>;
using CentroidShardEngine = ShardEngine<gossip::CentroidNode, CentroidCodec>;
using GmShardCluster = ShardCluster<gossip::GmNode, GmCodec>;
using CentroidShardCluster = ShardCluster<gossip::CentroidNode, CentroidCodec>;

/// The simulation slice of an EngineConfig as ShardEngineOptions (the
/// exchange-pacing knobs keep their defaults; set them afterwards).
[[nodiscard]] inline ShardEngineOptions shard_options(
    const sim::EngineConfig& config) {
  ShardEngineOptions options;
  static_cast<sim::RoundRunnerOptions&>(options) = config.round_options();
  return options;
}

/// GM nodes for the owned set map.owned(s) of a global input set, with
/// per-node streams derived by global id.
[[nodiscard]] inline std::vector<gossip::GmNode> make_gm_shard_nodes(
    const std::vector<linalg::Vector>& inputs,
    const gossip::NetworkConfig& net, const ShardMap& map, ShardId s,
    em::ReductionOptions reduction = {}) {
  DDC_EXPECTS(inputs.size() == map.num_nodes());
  std::vector<gossip::GmNode> nodes;
  nodes.reserve(map.size(s));
  for (const sim::NodeId i : map.owned(s)) {
    nodes.emplace_back(
        inputs[i],
        partition::EmPartition(stats::Rng::derive(net.seed, i), reduction),
        gossip::node_options(net, i, inputs.size()));
  }
  return nodes;
}

/// Centroid nodes for the owned set (see make_gm_shard_nodes).
[[nodiscard]] inline std::vector<gossip::CentroidNode>
make_centroid_shard_nodes(const std::vector<linalg::Vector>& inputs,
                          const gossip::NetworkConfig& net, const ShardMap& map,
                          ShardId s) {
  DDC_EXPECTS(inputs.size() == map.num_nodes());
  std::vector<gossip::CentroidNode> nodes;
  nodes.reserve(map.size(s));
  for (const sim::NodeId i : map.owned(s)) {
    nodes.emplace_back(
        inputs[i],
        partition::GreedyDistancePartition<summaries::CentroidPolicy>{},
        gossip::node_options(net, i, inputs.size()));
  }
  return nodes;
}

/// Exchange-pacing and partitioning knobs an engine factory copies out
/// of the caller's options_override (the simulation slice always comes
/// from the EngineConfig).
[[nodiscard]] inline ShardEngineOptions merge_exchange_options(
    const sim::EngineConfig& config,
    const ShardEngineOptions& options_override) {
  ShardEngineOptions options = options_override;
  static_cast<sim::RoundRunnerOptions&>(options) = config.round_options();
  return options;
}

/// One shard of a GM cluster over `transport` (peer ids = shard ids;
/// null only when num_shards == 1).
[[nodiscard]] inline GmShardEngine make_gm_shard_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId shard_id, ShardId num_shards,
    net::Transport* transport, ShardEngineOptions options_override = {},
    const em::ReductionOptions& reduction = {}) {
  const ShardMap map =
      ShardMap::make(options_override.partitioner, topology, num_shards);
  ShardEngineOptions options = merge_exchange_options(config, options_override);
  return GmShardEngine(
      std::move(topology), map, shard_id,
      make_gm_shard_nodes(inputs, gossip::network_config(config), map,
                          shard_id, reduction),
      transport, std::move(options));
}

/// One shard of a centroid cluster (see make_gm_shard_engine).
[[nodiscard]] inline CentroidShardEngine make_centroid_shard_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId shard_id, ShardId num_shards,
    net::Transport* transport, ShardEngineOptions options_override = {}) {
  const ShardMap map =
      ShardMap::make(options_override.partitioner, topology, num_shards);
  ShardEngineOptions options = merge_exchange_options(config, options_override);
  return CentroidShardEngine(
      std::move(topology), map, shard_id,
      make_centroid_shard_nodes(inputs, gossip::network_config(config), map,
                                shard_id),
      transport, std::move(options));
}

/// A whole in-process GM cluster over a loopback fabric.
[[nodiscard]] inline GmShardCluster make_gm_shard_cluster(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId num_shards,
    net::LoopbackOptions net_options = {},
    const em::ReductionOptions& reduction = {},
    Partitioner partitioner = Partitioner::contiguous) {
  ShardEngineOptions options = shard_options(config);
  options.partitioner = partitioner;
  return GmShardCluster(
      std::move(topology),
      gossip::make_gm_nodes(inputs, gossip::network_config(config), reduction),
      num_shards, std::move(options), net_options);
}

/// A whole in-process centroid cluster over a loopback fabric.
[[nodiscard]] inline CentroidShardCluster make_centroid_shard_cluster(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId num_shards,
    net::LoopbackOptions net_options = {},
    Partitioner partitioner = Partitioner::contiguous) {
  ShardEngineOptions options = shard_options(config);
  options.partitioner = partitioner;
  return CentroidShardCluster(
      std::move(topology),
      gossip::make_centroid_nodes(inputs, gossip::network_config(config)),
      num_shards, std::move(options), net_options);
}

}  // namespace ddc::shard
