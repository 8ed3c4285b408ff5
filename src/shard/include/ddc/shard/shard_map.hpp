// Deterministic node→shard ownership map for the sharded cluster engine.
//
// The cluster decomposes a Topology owner-computes style (the MPI
// decomposition of the d2-kmeans lineage). Every shard derives the SAME
// map from the same spec — (partitioner, topology, num_shards) — so no
// lookup tables ever cross the wire, and because all protocol draws are
// keyed off GLOBAL node ids plus the global env-stream replay, any
// ownership map yields bit-identical classification to the monolithic
// engine at any shard count. Two partitioners:
//
//  - contiguous (default): balanced contiguous ranges of global ids, the
//    first `num_nodes % num_shards` shards one node fatter. O(1) memory
//    in principle; shard_of() is a division. Pessimal cut for
//    geometric/ER node orderings (ids carry no locality there).
//  - edgecut: seeded FIFO BFS growth over the CSR topology (shard s
//    absorbs a breadth-first ball of its target size starting from the
//    smallest unassigned id) followed by bounded greedy refinement
//    sweeps. Same balance (±kBalanceSlack per shard), far fewer cut
//    edges on grid/geometric/ER where BFS balls are compact.
//
// Either way the map materializes owner/local-index tables plus a CSR of
// owned ids per shard, so engines address per-node state through
// owned(s)/local_index(i) and never assume contiguity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include <ddc/sim/topology.hpp>

namespace ddc::shard {

using ShardId = std::uint32_t;

/// Node→shard assignment strategy. Every shard of a cluster must use the
/// same partitioner (the map is recomputed locally, never transmitted).
enum class Partitioner : std::uint8_t {
  contiguous,  ///< balanced contiguous global-id ranges
  edgecut,     ///< BFS growth + refinement minimizing cross-shard edges
};

/// Canonical flag spelling ("contiguous" / "edgecut").
[[nodiscard]] std::string_view partitioner_name(Partitioner p) noexcept;

/// Parses the canonical spelling; throws ddc::ConfigError otherwise.
[[nodiscard]] Partitioner parse_partitioner(std::string_view name);

/// Deterministic ownership map of [0, num_nodes) across num_shards
/// shards: every node owned by exactly one shard, shard sizes balanced,
/// identical on every shard constructed from the same spec.
class ShardMap {
 public:
  /// Balanced contiguous partition (Partitioner::contiguous). Throws
  /// ddc::ConfigError unless 1 <= num_shards <= num_nodes.
  ShardMap(std::size_t num_nodes, ShardId num_shards);

  /// Builds the map for the requested partitioner. `contiguous` ignores
  /// the topology's edges; `edgecut` grows BFS balls over them.
  [[nodiscard]] static ShardMap make(Partitioner partitioner,
                                     const sim::Topology& topology,
                                     ShardId num_shards);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] ShardId num_shards() const noexcept { return num_shards_; }

  /// Global node ids owned by shard s, ascending. Valid while the map
  /// lives.
  [[nodiscard]] std::span<const sim::NodeId> owned(ShardId s) const;
  /// Number of nodes shard s owns.
  [[nodiscard]] std::size_t size(ShardId s) const;
  /// The shard owning global node id `node`.
  [[nodiscard]] ShardId shard_of(sim::NodeId node) const;
  /// Position of `node` within owned(shard_of(node)) — the index engines
  /// use for per-node local state.
  [[nodiscard]] std::size_t local_index(sim::NodeId node) const;

  /// Cross-shard directed edge count of `topology` under this map — the
  /// traffic the cluster pushes through Transport (each undirected edge
  /// counts twice, matching the two records it can carry per round).
  [[nodiscard]] std::size_t cut_edges(const sim::Topology& topology) const;
  /// Directed owned→remote edges of shard s alone.
  [[nodiscard]] std::size_t cut_edges(const sim::Topology& topology,
                                      ShardId s) const;

 private:
  ShardMap(std::size_t num_nodes, ShardId num_shards,
           std::vector<ShardId> owner);

  static std::vector<ShardId> grow_edgecut(const sim::Topology& topology,
                                           ShardId num_shards);

  std::size_t num_nodes_;
  ShardId num_shards_;
  std::vector<ShardId> owner_;            // node -> owning shard
  std::vector<std::size_t> local_;        // node -> index in owner's list
  std::vector<sim::NodeId> owned_flat_;   // CSR values: owned ids per shard
  std::vector<std::size_t> owned_begin_;  // CSR offsets, num_shards + 1
};

}  // namespace ddc::shard
