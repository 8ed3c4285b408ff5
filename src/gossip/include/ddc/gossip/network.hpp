// Node construction for whole networks of protocol nodes.
//
// Every engine builds its nodes here, from the protocol slice of one
// sim::EngineConfig (k, quanta_per_unit, track_aux, protocol_seed).
// Node i's construction is written once per protocol (make_gm_node,
// make_centroid_node): its EM restart stream derives from the protocol
// seed by GLOBAL id i, so a node's randomness does not depend on which
// engine or shard hosts it. make_nodes applies one of them to a set of
// ids: every id for the monolithic engines, the owned ids for a shard
// (shard/factories.hpp).
#pragma once

#include <cstdint>
#include <ranges>
#include <type_traits>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/core/classifier.hpp>
#include <ddc/em/mixture_reduction.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/push_sum.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/sim/engine_config.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::gossip {

/// Per-node classifier options for node `i` of `n`.
[[nodiscard]] inline core::ClassifierOptions node_options(
    const sim::EngineConfig& config, std::size_t i, std::size_t n) {
  core::ClassifierOptions options;
  options.k = config.k;
  options.quanta_per_unit = config.quanta_per_unit;
  options.track_aux = config.track_aux;
  options.num_nodes = n;
  options.node_index = i;
  return options;
}

/// GM node i (paper Section 5) of the network over `inputs`, with its own
/// derived RNG stream for EM restarts.
[[nodiscard]] inline GmNode make_gm_node(
    const std::vector<linalg::Vector>& inputs, sim::NodeId i,
    const sim::EngineConfig& config,
    const em::ReductionOptions& reduction = {}) {
  return GmNode(
      inputs[i],
      partition::EmPartition(stats::Rng::derive(config.protocol_seed, i),
                             reduction),
      node_options(config, i, inputs.size()));
}

/// Centroid node i (paper Algorithm 2) of the network over `inputs`.
[[nodiscard]] inline CentroidNode make_centroid_node(
    const std::vector<linalg::Vector>& inputs, sim::NodeId i,
    const sim::EngineConfig& config) {
  return CentroidNode(
      inputs[i],
      partition::GreedyDistancePartition<summaries::CentroidPolicy>{},
      node_options(config, i, inputs.size()));
}

/// make_node(i) for every global id i in `ids`, in order. The monolithic
/// engines pass every id; a shard passes only the ids it owns.
template <std::ranges::sized_range Ids, typename MakeNode>
[[nodiscard]] auto make_nodes(const Ids& ids, MakeNode make_node) {
  std::vector<std::invoke_result_t<MakeNode&, sim::NodeId>> nodes;
  nodes.reserve(std::ranges::size(ids));
  for (const sim::NodeId i : ids) nodes.push_back(make_node(i));
  return nodes;
}

/// One GM node per input.
[[nodiscard]] inline std::vector<GmNode> make_gm_nodes(
    const std::vector<linalg::Vector>& inputs, const sim::EngineConfig& config,
    const em::ReductionOptions& reduction = {}) {
  DDC_EXPECTS(!inputs.empty());
  const auto all = std::views::iota(sim::NodeId{0}, inputs.size());
  return make_nodes(all, [&](sim::NodeId i) {
    return make_gm_node(inputs, i, config, reduction);
  });
}

/// One centroid node per input.
[[nodiscard]] inline std::vector<CentroidNode> make_centroid_nodes(
    const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config) {
  DDC_EXPECTS(!inputs.empty());
  const auto all = std::views::iota(sim::NodeId{0}, inputs.size());
  return make_nodes(all, [&](sim::NodeId i) {
    return make_centroid_node(inputs, i, config);
  });
}

/// One push-sum node (regular average aggregation baseline) per input.
[[nodiscard]] inline std::vector<PushSumNode> make_push_sum_nodes(
    const std::vector<linalg::Vector>& inputs) {
  DDC_EXPECTS(!inputs.empty());
  std::vector<PushSumNode> nodes;
  nodes.reserve(inputs.size());
  for (const auto& input : inputs) nodes.emplace_back(input);
  return nodes;
}

}  // namespace ddc::gossip
