// Streaming metrics — convergence probes that hold O(k) state, never a
// per-node history.
//
// The materializing metrics (classification_metrics.hpp) take a node
// vector; at scale-engine sizes (10⁵–10⁶ nodes) even copying every
// classification into a vector for a probe would dwarf the round itself. These variants consume an engine's
// for_each_classification stream: one pass, one reference
// classification, one running maximum.
#pragma once

#include <algorithm>
#include <cstdint>

#include <ddc/common/assert.hpp>
#include <ddc/core/collection.hpp>
#include <ddc/core/policy.hpp>
#include <ddc/metrics/classification_metrics.hpp>

namespace ddc::metrics {

/// Maximum disagreement against node 0 over a streaming engine — the
/// scale-engine counterpart of max_disagreement_vs_first. `Engine` needs
/// `for_each_classification(fn(i, classification))` in node order, as
/// the one-shard shard::ShardEngine offers over either node storage. Holds one copied reference classification
/// (O(k)) and a running maximum; no per-node history.
template <core::SummaryPolicy SP, typename Engine>
[[nodiscard]] double streaming_max_disagreement(const Engine& engine) {
  core::Classification<typename SP::Summary> reference;
  double worst = 0.0;
  engine.for_each_classification(
      [&](std::size_t i,
          const core::Classification<typename SP::Summary>& classification) {
        if (i == 0) {
          reference = classification;  // the stream reuses its buffer
          return;
        }
        worst = std::max(
            worst, classification_distance<SP>(reference, classification));
      });
  return worst;
}

/// Streaming mean number of collections per node — a cheap structural
/// probe (how far nodes are from the k-bound) that reads only counts.
template <typename Engine>
[[nodiscard]] double streaming_mean_collections(const Engine& engine) {
  std::uint64_t total = 0;
  std::size_t nodes = 0;
  engine.for_each_classification(
      [&](std::size_t /*i*/, const auto& classification) {
        total += classification.size();
        ++nodes;
      });
  DDC_EXPECTS(nodes > 0);
  return static_cast<double>(total) / static_cast<double>(nodes);
}

}  // namespace ddc::metrics
