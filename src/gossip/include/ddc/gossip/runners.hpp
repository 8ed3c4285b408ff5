// Factories for the async (event-driven) engine: build the node vector
// (network.hpp), marry it with a topology in an AsyncRunner, and slice
// the async options out of the one EngineConfig. They live in
// ddc::gossip because they construct gossip protocol nodes. The round
// engine's factories are in scale.hpp (pool storage) and
// shard/factories.hpp (object storage: one shard or a cluster). `config.validate()` is the caller's
// responsibility (the CLI layer validates at parse time).
#pragma once

#include <utility>
#include <vector>

#include <ddc/em/mixture_reduction.hpp>
#include <ddc/gossip/classifier_node.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/linalg/vector.hpp>
#include <ddc/sim/async_runner.hpp>
#include <ddc/sim/engine_config.hpp>

namespace ddc::gossip {

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
