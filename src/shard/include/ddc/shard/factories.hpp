// Factories for ShardEngine runs, each taking the one sim::EngineConfig:
// one shard of a cluster, a whole in-process cluster, or the object
// engine (make_*_round_runner: the whole network in one shard).
//
// The node-construction discipline is the load-bearing part: a shard
// builds ONLY its owned ids, with the monolithic engines' per-node
// builders (gossip::make_gm_node, gossip::make_centroid_node), whose
// streams derive from the protocol seed by GLOBAL node id — so a node's
// randomness does not depend on which shard hosts it, and the
// equivalence matrix (1 vs S shards) can demand bit-identical states.
#pragma once

#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/dkmeans.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/gossip/push_sum.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/net/transport.hpp>
#include <ddc/shard/cluster.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/engine_config.hpp>

namespace ddc::shard {

using GmShardEngine = ShardEngine<gossip::GmNode>;
using CentroidShardEngine = ShardEngine<gossip::CentroidNode>;
using GmShardCluster = ShardCluster<gossip::GmNode>;
using CentroidShardCluster = ShardCluster<gossip::CentroidNode>;

/// ShardEngineOptions for a run: the exchange-pacing and partitioning
/// knobs come from `exchange`, the simulation slice from `config`.
[[nodiscard]] inline ShardEngineOptions shard_options(
    const sim::EngineConfig& config, ShardEngineOptions exchange = {}) {
  static_cast<sim::RoundRunnerOptions&>(exchange) = config.round_options();
  return exchange;
}

/// One shard of a GM cluster over `transport` (peer ids = shard ids;
/// null only when num_shards == 1). Exchange pacing and the partitioner
/// come from `exchange` (see shard_options).
[[nodiscard]] inline GmShardEngine make_gm_shard_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId shard_id, ShardId num_shards,
    net::Transport* transport, ShardEngineOptions exchange = {},
    const em::ReductionOptions& reduction = {}) {
  DDC_EXPECTS(inputs.size() == topology.num_nodes());
  const ShardMap map =
      ShardMap::make(exchange.partitioner, topology, num_shards);
  auto nodes = gossip::make_nodes(map.owned(shard_id), [&](sim::NodeId i) {
    return gossip::make_gm_node(inputs, i, config, reduction);
  });
  return GmShardEngine(std::move(topology), map, shard_id, std::move(nodes),
                       transport, shard_options(config, std::move(exchange)));
}

/// One shard of a centroid cluster (see make_gm_shard_engine).
[[nodiscard]] inline CentroidShardEngine make_centroid_shard_engine(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config, ShardId shard_id, ShardId num_shards,
    net::Transport* transport, ShardEngineOptions exchange = {}) {
  DDC_EXPECTS(inputs.size() == topology.num_nodes());
  const ShardMap map =
      ShardMap::make(exchange.partitioner, topology, num_shards);
  auto nodes = gossip::make_nodes(map.owned(shard_id), [&](sim::NodeId i) {
    return gossip::make_centroid_node(inputs, i, config);
  });
  return CentroidShardEngine(std::move(topology), map, shard_id,
                             std::move(nodes), transport,
                             shard_options(config, std::move(exchange)));
}

/// The object engine for GM (the paper's Section 5 instantiation): one
/// node per input, EM partitioning with per-node derived RNG streams.
[[nodiscard]] inline GmShardEngine make_gm_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config = {},
    const em::ReductionOptions& reduction = {}) {
  return make_gm_shard_engine(std::move(topology), inputs, config, 0, 1,
                              nullptr, {}, reduction);
}

/// The object engine for centroids (the paper's Algorithm 2).
[[nodiscard]] inline CentroidShardEngine make_centroid_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config = {}) {
  return make_centroid_shard_engine(std::move(topology), inputs, config, 0, 1,
                                    nullptr);
}

/// The object engine for push-sum (the plain average-aggregation
/// baseline). Reads only the round options of `config`.
[[nodiscard]] inline ShardEngine<gossip::PushSumNode>
make_push_sum_round_runner(sim::Topology topology,
                           const std::vector<linalg::Vector>& inputs,
                           const sim::EngineConfig& config = {}) {
  return ShardEngine<gossip::PushSumNode>(std::move(topology),
                                          gossip::make_push_sum_nodes(inputs),
                                          config.round_options());
}

/// The object engine for distributed k-means (the Section 2 comparator).
/// All nodes share `initial_centroids`, as the algorithm requires. Reads
/// only the round options of `config`.
[[nodiscard]] inline ShardEngine<gossip::DistributedKMeansNode>
make_dkmeans_round_runner(sim::Topology topology,
                          const std::vector<linalg::Vector>& inputs,
                          const std::vector<linalg::Vector>& initial_centroids,
                          std::size_t rounds_per_iteration,
                          const sim::EngineConfig& config = {}) {
  std::vector<gossip::DistributedKMeansNode> nodes;
  nodes.reserve(inputs.size());
  for (const linalg::Vector& input : inputs) {
    nodes.emplace_back(input, initial_centroids, rounds_per_iteration);
  }
  return ShardEngine<gossip::DistributedKMeansNode>(
      std::move(topology), std::move(nodes), config.round_options());
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
  return GmShardCluster(std::move(topology),
                        gossip::make_gm_nodes(inputs, config, reduction),
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
  return CentroidShardCluster(std::move(topology),
                              gossip::make_centroid_nodes(inputs, config),
                              num_shards, std::move(options), net_options);
}

}  // namespace ddc::shard
