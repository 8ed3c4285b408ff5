// Factories that assemble a ready-to-run object-engine simulation in one
// call: build the node vector (network.hpp), marry it with a topology in
// a runner, and slice the runner options out of the one EngineConfig:
//
//   auto runner = ddc::gossip::make_gm_round_runner(
//       ddc::sim::Topology::complete(n), inputs, config);
//
// They live in ddc::gossip because they construct gossip protocol nodes
// (the sim library cannot depend on gossip). The SoA engine's factories
// are in scale.hpp, the sharded engine's in shard/factories.hpp.
// `config.validate()` is the caller's responsibility (the CLI layer
// validates at parse time).
#pragma once

#include <utility>
#include <vector>

#include <ddc/em/mixture_reduction.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/dkmeans.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/sim/async_runner.hpp>
#include <ddc/sim/engine_config.hpp>
#include <ddc/sim/round_runner.hpp>

namespace ddc::gossip {

/// Round-based GM network (the paper's Section 5 instantiation): one node
/// per input, EM partitioning with per-node derived RNG streams.
[[nodiscard]] inline sim::RoundRunner<GmNode> make_gm_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config = {},
    const em::ReductionOptions& reduction = {}) {
  return sim::RoundRunner<GmNode>(std::move(topology),
                                  make_gm_nodes(inputs, config, reduction),
                                  config.round_options());
}

/// Round-based centroid network (the paper's Algorithm 2).
[[nodiscard]] inline sim::RoundRunner<CentroidNode> make_centroid_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config = {}) {
  return sim::RoundRunner<CentroidNode>(std::move(topology),
                                        make_centroid_nodes(inputs, config),
                                        config.round_options());
}

/// Round-based push-sum network (the plain average-aggregation baseline).
/// Reads only the runner options of `config`.
[[nodiscard]] inline sim::RoundRunner<PushSumNode> make_push_sum_round_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config = {}) {
  return sim::RoundRunner<PushSumNode>(std::move(topology),
                                       make_push_sum_nodes(inputs),
                                       config.round_options());
}

/// Round-based distributed k-means network (the Section 2 comparator).
/// All nodes share `initial_centroids`, as the algorithm requires. Reads
/// only the runner options of `config`.
[[nodiscard]] inline sim::RoundRunner<DistributedKMeansNode>
make_dkmeans_round_runner(sim::Topology topology,
                          const std::vector<linalg::Vector>& inputs,
                          const std::vector<linalg::Vector>& initial_centroids,
                          std::size_t rounds_per_iteration,
                          const sim::EngineConfig& config = {}) {
  std::vector<DistributedKMeansNode> nodes;
  nodes.reserve(inputs.size());
  for (const linalg::Vector& input : inputs) {
    nodes.emplace_back(input, initial_centroids, rounds_per_iteration);
  }
  return sim::RoundRunner<DistributedKMeansNode>(std::move(topology),
                                                 std::move(nodes),
                                                 config.round_options());
}

/// Asynchronous (event-driven) GM network. Relies on guaranteed copy
/// elision — AsyncRunner is neither copyable nor movable, so bind the
/// result directly: `auto runner = make_gm_async_runner(...)`.
[[nodiscard]] inline sim::AsyncRunner<GmNode> make_gm_async_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config = {},
    const em::ReductionOptions& reduction = {}) {
  return sim::AsyncRunner<GmNode>(std::move(topology),
                                  make_gm_nodes(inputs, config, reduction),
                                  config.async_options());
}

/// Asynchronous centroid network (see make_gm_async_runner on binding).
[[nodiscard]] inline sim::AsyncRunner<CentroidNode> make_centroid_async_runner(
    sim::Topology topology, const std::vector<linalg::Vector>& inputs,
    const sim::EngineConfig& config = {}) {
  return sim::AsyncRunner<CentroidNode>(std::move(topology),
                                        make_centroid_nodes(inputs, config),
                                        config.async_options());
}

}  // namespace ddc::gossip
