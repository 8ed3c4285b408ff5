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
//    first `num_nodes % num_shards` shards one node fatter. It keeps no
//    per-node table: shard_of() is a division, local_index() a
//    subtraction and owned(s) a range of ids. Pessimal cut for
//    geometric/ER node orderings (ids carry no locality there).
//  - edgecut: seeded FIFO BFS growth over the CSR topology (shard s
//    absorbs a breadth-first ball of its target size starting from the
//    smallest unassigned id) followed by bounded greedy refinement
//    sweeps. Same balance (±kBalanceSlack per shard), far fewer cut
//    edges on grid/geometric/ER where BFS balls are compact. Only this
//    map materializes tables: owner and local index per node (4 B each)
//    plus a CSR of owned ids per shard. When the grown map does not cut
//    fewer edges it falls back to the contiguous one, tables and all.
//
// Either way engines address per-node state through
// owned(s)/local_index(i) and never assume contiguity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include <ddc/common/assert.hpp>
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

/// The global ids a shard owns, ascending: a range of ids on a
/// contiguous map, a slice of the owned-id table on an edgecut map.
/// Valid while the map lives.
class OwnedIds {
 public:
  class iterator {
   public:
    using value_type = sim::NodeId;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    iterator(const OwnedIds& ids, std::size_t j)
        : table_(ids.table_), first_(ids.first_), j_(j) {}
    sim::NodeId operator*() const { return at(table_, first_, j_); }
    iterator& operator++() {
      ++j_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++j_;
      return before;
    }
    bool operator==(const iterator& other) const { return j_ == other.j_; }

   private:
    const sim::NodeId* table_ = nullptr;
    sim::NodeId first_ = 0;
    std::size_t j_ = 0;
  };

  /// The ids first … first + size − 1.
  OwnedIds(sim::NodeId first, std::size_t size) : first_(first), size_(size) {}
  /// The ids listed in `table`.
  explicit OwnedIds(std::span<const sim::NodeId> table)
      : table_(table.data()), size_(table.size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] sim::NodeId operator[](std::size_t j) const {
    return at(table_, first_, j);
  }
  [[nodiscard]] sim::NodeId front() const { return (*this)[0]; }
  [[nodiscard]] sim::NodeId back() const { return (*this)[size_ - 1]; }
  [[nodiscard]] iterator begin() const { return {*this, 0}; }
  [[nodiscard]] iterator end() const { return {*this, size_}; }

 private:
  [[nodiscard]] static sim::NodeId at(const sim::NodeId* table,
                                      sim::NodeId first, std::size_t j) {
    return table != nullptr ? table[j] : first + static_cast<sim::NodeId>(j);
  }

  const sim::NodeId* table_ = nullptr;  // null for a range
  sim::NodeId first_ = 0;
  std::size_t size_ = 0;
};

/// Deterministic ownership map of [0, num_nodes) across num_shards
/// shards: every node owned by exactly one shard, shard sizes balanced,
/// identical on every shard constructed from the same spec.
class ShardMap {
 public:
  /// Balanced contiguous partition (Partitioner::contiguous). Throws
  /// ddc::ConfigError unless 1 <= num_shards <= num_nodes; requires
  /// num_nodes <= sim::kMaxNodes.
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
  [[nodiscard]] OwnedIds owned(ShardId s) const;
  /// Number of nodes shard s owns.
  [[nodiscard]] std::size_t size(ShardId s) const;
  /// The shard owning global node id `node`.
  [[nodiscard]] ShardId shard_of(sim::NodeId node) const {
    DDC_EXPECTS(node < num_nodes_);
    if (tabled()) return owner_[node];
    const sim::NodeId fat_end = fat_ * (base_ + 1);
    return node < fat_end ? node / (base_ + 1)
                          : fat_ + (node - fat_end) / base_;
  }
  /// shard_of(node) == s; on a contiguous map a range check, with no
  /// division.
  [[nodiscard]] bool owns(ShardId s, sim::NodeId node) const {
    DDC_EXPECTS(node < num_nodes_ && s < num_shards_);
    if (tabled()) return owner_[node] == s;
    return node - first(s) < count(s);
  }
  /// Position of `node` within owned(shard_of(node)) — the index engines
  /// use for per-node local state.
  [[nodiscard]] std::size_t local_index(sim::NodeId node) const {
    DDC_EXPECTS(node < num_nodes_);
    if (tabled()) return local_[node];
    return node - first(shard_of(node));
  }

  /// Cross-shard directed edge count of `topology` under this map — the
  /// traffic the cluster pushes through Transport (each undirected edge
  /// counts twice, matching the two records it can carry per round).
  [[nodiscard]] std::size_t cut_edges(const sim::Topology& topology) const;
  /// Directed owned→remote edges of shard s alone.
  [[nodiscard]] std::size_t cut_edges(const sim::Topology& topology,
                                      ShardId s) const;

 private:
  /// An edgecut map from its owner table.
  ShardMap(std::size_t num_nodes, ShardId num_shards,
           std::vector<ShardId> owner);

  static std::vector<ShardId> grow_edgecut(const sim::Topology& topology,
                                           ShardId num_shards);

  /// True for an edgecut map, which looks ids up in its tables.
  [[nodiscard]] bool tabled() const noexcept { return !owner_.empty(); }
  /// A contiguous map's first id of shard s, and its node count.
  [[nodiscard]] sim::NodeId first(ShardId s) const noexcept {
    return s * base_ + std::min(s, fat_);
  }
  [[nodiscard]] sim::NodeId count(ShardId s) const noexcept {
    return base_ + (s < fat_ ? 1 : 0);
  }

  std::size_t num_nodes_;
  ShardId num_shards_;
  // Contiguous: every shard owns base_ nodes, the first fat_ one more.
  sim::NodeId base_;
  ShardId fat_;
  // Edgecut only; empty on a contiguous map.
  std::vector<ShardId> owner_;            // node -> owning shard
  std::vector<sim::NodeId> local_;        // node -> index in owner's list
  std::vector<sim::NodeId> owned_flat_;   // CSR values: owned ids per shard
  std::vector<std::size_t> owned_begin_;  // CSR offsets, num_shards + 1
};

}  // namespace ddc::shard
