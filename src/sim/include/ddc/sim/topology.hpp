// Network topologies.
//
// The paper's model (Section 3.1) is a static directed connected network
// of n nodes with reliable asynchronous channels, and its convergence
// theorem holds for *any* such topology. This module provides the standard
// families used by the evaluation and the ablations: the fully-connected
// graph of Section 5.3, rings/lines/grids, random geometric graphs (the
// natural model of a radio sensor field), and Erdős–Rényi graphs.
//
// Storage is compressed sparse row (CSR): one flat offsets array and one
// flat targets array, so a million-node sparse graph costs two cache-dense
// allocations instead of a million little adjacency vectors, and
// `neighbors(i)` is an O(1) span lookup. Node ids are 32-bit, so a graph
// costs 4 B per arc plus 8 B per node of arc offsets (which stay 64-bit:
// the arc count may pass 2³²). Every undirected edge is stored as both
// of its directed arcs. Neighbor ORDER is part of the contract —
// the engines' round-robin cursors and uniform draws index into it — and
// matches the historical per-node insertion order exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// A node's id, 0 … n−1. The wire carries ids as u32 varints too.
using NodeId = std::uint32_t;
static_assert(sizeof(NodeId) == 4);

/// The largest node count: every id, and n itself, stays below the
/// largest NodeId (2³² − 1), which RoundPlan reserves as kNoTarget.
inline constexpr std::size_t kMaxNodes = (std::size_t{1} << 32) - 2;

/// `n`, once DDC_EXPECTS has checked n ≤ kMaxNodes: for sizing per-node
/// arrays only after the count is known to fit NodeId.
[[nodiscard]] std::size_t checked_node_count(std::size_t n);

/// A static directed graph in CSR form. Immutable once built.
class Topology {
 public:
  /// Graph from explicit directed edges. Self-loops and duplicate edges
  /// are rejected. Every builder requires n ≤ kMaxNodes.
  [[nodiscard]] static Topology from_edges(
      std::size_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Complete graph K_n (the evaluation topology of Section 5.3).
  /// Requires n ≥ 2.
  [[nodiscard]] static Topology complete(std::size_t n);

  /// Bidirectional ring 0–1–…–(n−1)–0. Requires n ≥ 2.
  [[nodiscard]] static Topology ring(std::size_t n);

  /// Unidirectional (directed) ring — the minimal strongly-connected
  /// digraph; a stress case for convergence. Requires n ≥ 2.
  [[nodiscard]] static Topology directed_ring(std::size_t n);

  /// Bidirectional path 0–1–…–(n−1). Requires n ≥ 2.
  [[nodiscard]] static Topology line(std::size_t n);

  /// Star with node 0 at the center. Requires n ≥ 2.
  [[nodiscard]] static Topology star(std::size_t n);

  /// rows×cols 4-neighbor grid, optionally wrapped into a torus.
  /// Requires rows·cols ≥ 2.
  [[nodiscard]] static Topology grid(std::size_t rows, std::size_t cols,
                                     bool torus = false);

  /// Random geometric graph: n nodes placed uniformly in the unit square,
  /// connected when within `radius`. Models radio range in a sensor field.
  /// Redraws positions (up to `max_attempts`) until the graph is
  /// connected; throws ddc::ConfigError if that never happens.
  ///
  /// Candidate pairs come from a grid-bucketed neighbor search (cells of
  /// side `radius`, 3×3 stencil), so construction is O(n + edges) expected
  /// instead of the all-pairs O(n²) — feasible at 10⁵–10⁶ nodes. The
  /// positions drawn, the edge set and the neighbor order are identical to
  /// the historical all-pairs scan (seed-era draw order preserved;
  /// topology_test pins this against a reference implementation).
  [[nodiscard]] static Topology random_geometric(std::size_t n, double radius,
                                                 stats::Rng& rng,
                                                 std::size_t max_attempts = 100);

  /// Erdős–Rényi G(n, p), redrawn until connected (up to `max_attempts`).
  [[nodiscard]] static Topology erdos_renyi(std::size_t n, double p,
                                            stats::Rng& rng,
                                            std::size_t max_attempts = 100);

  [[nodiscard]] std::size_t num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return targets_.size();
  }

  /// Out-neighbors of `i` — the nodes `i` may send to. O(1), a view into
  /// the CSR targets array; valid as long as the topology lives.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId i) const;

  /// Out-degree of `i`.
  [[nodiscard]] std::size_t degree(NodeId i) const {
    return neighbors(i).size();
  }

  /// True iff there is an edge i → j.
  [[nodiscard]] bool has_edge(NodeId i, NodeId j) const;

  /// Strong connectivity (the paper's standing assumption): every node
  /// reaches every other along directed edges. For the undirected
  /// families (all but `from_edges` and `directed_ring`) this is plain
  /// connectivity, settled by one reachability pass from node 0; a
  /// directed graph also needs node 0 reachable from every node.
  [[nodiscard]] bool is_connected() const;

  /// Diameter of the underlying graph (longest shortest path, following
  /// directed edges). Requires a connected graph.
  [[nodiscard]] std::size_t diameter() const;

  /// Node positions in the unit square — engaged for random_geometric
  /// topologies (useful for examples that want spatial semantics).
  [[nodiscard]] const std::optional<std::vector<std::pair<double, double>>>&
  positions() const noexcept {
    return positions_;
  }

 private:
  /// Collects edges in insertion order, then compresses into CSR with a
  /// stable counting scatter by source — so each node's neighbor list
  /// keeps the exact order in which its edges were added, matching the
  /// pre-CSR adjacency-vector behaviour draw for draw.
  ///
  /// A directed builder takes `add_edge` and stores one pair per arc. An
  /// undirected builder takes `add_undirected` and stores one pair per
  /// edge; `finish` scatters both arcs of a pair at that pair's place in
  /// the insertion order, which is exactly where adding the two arcs one
  /// after the other would have put them. `finish` frees the pair list
  /// before it checks for duplicates, so the list and the topology's
  /// connectivity check never hold memory at the same time.
  class Builder {
   public:
    enum class Kind { directed, undirected };
    Builder(std::size_t n, Kind kind);
    void add_edge(NodeId from, NodeId to);      // directed builders only
    void add_undirected(NodeId a, NodeId b);    // undirected builders only
    /// Compresses into a Topology. Rejects duplicate edges (DDC_EXPECTS).
    [[nodiscard]] Topology finish() &&;

   private:
    void add_pair(NodeId a, NodeId b);

    std::vector<std::pair<NodeId, NodeId>> edges_;
    std::vector<std::size_t> degree_;
    bool undirected_;
  };

  Topology() = default;

  std::size_t num_nodes_ = 0;
  /// offsets_[i]..offsets_[i+1] delimit node i's slice of targets_.
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> targets_;
  /// Built from undirected edges: every arc has its reverse.
  bool undirected_ = false;
  std::optional<std::vector<std::pair<double, double>>> positions_;
};

}  // namespace ddc::sim
