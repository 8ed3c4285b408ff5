#include <ddc/sim/topology.hpp>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>

#include <ddc/common/assert.hpp>
#include <ddc/common/error.hpp>

namespace ddc::sim {

std::size_t checked_node_count(std::size_t n) {
  DDC_EXPECTS(n <= kMaxNodes);
  return n;
}

Topology::Builder::Builder(std::size_t n, Kind kind)
    : degree_(checked_node_count(n), 0),
      undirected_(kind == Kind::undirected) {}

void Topology::Builder::add_pair(NodeId a, NodeId b) {
  DDC_EXPECTS(a < degree_.size() && b < degree_.size());
  DDC_EXPECTS(a != b);
  edges_.emplace_back(a, b);
  ++degree_[a];
}

void Topology::Builder::add_edge(NodeId from, NodeId to) {
  DDC_EXPECTS(!undirected_);
  add_pair(from, to);
}

void Topology::Builder::add_undirected(NodeId a, NodeId b) {
  DDC_EXPECTS(undirected_);
  add_pair(a, b);
  ++degree_[b];
}

Topology Topology::Builder::finish() && {
  const std::size_t n = degree_.size();
  Topology t;
  t.num_nodes_ = n;
  t.undirected_ = undirected_;
  t.offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    t.offsets_[i + 1] = t.offsets_[i] + degree_[i];
  }
  t.targets_.resize(t.offsets_[n]);
  // Stable counting scatter by source: each node's slice receives its
  // arcs in global insertion order, reproducing the old per-vector
  // push_back order exactly. The degrees become the write cursors.
  std::vector<std::size_t> cursor = std::move(degree_);
  std::copy(t.offsets_.begin(), t.offsets_.end() - 1, cursor.begin());
  {
    const auto edges = std::move(edges_);  // freed at the end of the scope
    for (const auto& [a, b] : edges) {
      t.targets_[cursor[a]++] = b;
      if (undirected_) t.targets_[cursor[b]++] = a;
    }
  }
  // Duplicate-edge rejection in one O(m) pass: last_row[v] is the last
  // node whose row listed v, so a second v in row i finds i there. It
  // takes over the cursors' storage.
  std::vector<std::size_t> last_row = std::move(cursor);
  std::fill(last_row.begin(), last_row.end(), n);
  for (NodeId i = 0; i < n; ++i) {
    for (const NodeId v : t.neighbors(i)) {
      DDC_EXPECTS(last_row[v] != i);
      last_row[v] = i;
    }
  }
  return t;
}

Topology Topology::from_edges(
    std::size_t num_nodes, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  DDC_EXPECTS(num_nodes >= 1);
  Builder b(num_nodes, Builder::Kind::directed);
  for (const auto& [from, to] : edges) b.add_edge(from, to);
  return std::move(b).finish();
}

Topology Topology::complete(std::size_t n) {
  DDC_EXPECTS(n >= 2);
  // Pairs in ascending (i, j), i < j, give every node the ascending list
  // 0..n−1 without itself — the order of adding each node's arcs in turn.
  Builder b(n, Builder::Kind::undirected);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) b.add_undirected(i, j);
  }
  return std::move(b).finish();
}

Topology Topology::ring(std::size_t n) {
  DDC_EXPECTS(n >= 2);
  Builder b(n, Builder::Kind::undirected);
  if (n == 2) {
    // One undirected pair; the wrap-around edge would be a duplicate.
    b.add_undirected(0, 1);
  } else {
    for (NodeId i = 0; i < n; ++i) b.add_undirected(i, (i + 1) % n);
  }
  return std::move(b).finish();
}

Topology Topology::directed_ring(std::size_t n) {
  DDC_EXPECTS(n >= 2);
  Builder b(n, Builder::Kind::directed);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return std::move(b).finish();
}

Topology Topology::line(std::size_t n) {
  DDC_EXPECTS(n >= 2);
  Builder b(n, Builder::Kind::undirected);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_undirected(i, i + 1);
  return std::move(b).finish();
}

Topology Topology::star(std::size_t n) {
  DDC_EXPECTS(n >= 2);
  Builder b(n, Builder::Kind::undirected);
  for (NodeId i = 1; i < n; ++i) b.add_undirected(0, i);
  return std::move(b).finish();
}

Topology Topology::grid(std::size_t rows, std::size_t cols, bool torus) {
  DDC_EXPECTS(rows >= 1 && cols >= 1 && rows * cols >= 2);
  Builder b(rows * cols, Builder::Kind::undirected);
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        b.add_undirected(id(r, c), id(r, c + 1));
      } else if (torus && cols > 2) {
        b.add_undirected(id(r, c), id(r, 0));
      }
      if (r + 1 < rows) {
        b.add_undirected(id(r, c), id(r + 1, c));
      } else if (torus && rows > 2) {
        b.add_undirected(id(r, c), id(0, c));
      }
    }
  }
  return std::move(b).finish();
}

namespace {

/// Uniform-grid spatial index over the unit square with cells of side
/// `radius`: candidate neighbors of a point all live in its 3×3 cell
/// stencil, turning the all-pairs O(n²) distance scan into O(n) expected
/// for the radii the sensor-field workloads use.
class CellIndex {
 public:
  CellIndex(const std::vector<std::pair<double, double>>& pos, double radius)
      : side_(grid_side(pos.size(), radius)),
        offsets_(side_ * side_ + 1, 0),
        members_(pos.size()) {
    // Counting sort of point indices by cell, preserving index order
    // within each cell (points are visited in ascending index twice).
    std::vector<std::size_t> count(side_ * side_, 0);
    for (const auto& p : pos) ++count[cell_of(p)];
    for (std::size_t c = 0; c < count.size(); ++c) {
      offsets_[c + 1] = offsets_[c] + count[c];
    }
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (NodeId i = 0; i < pos.size(); ++i) {
      members_[cursor[cell_of(pos[i])]++] = i;
    }
  }

  /// Appends to `out` every point index in the 3×3 stencil around `p`.
  void stencil(const std::pair<double, double>& p,
               std::vector<NodeId>& out) const {
    const std::size_t cr = clamp_axis(p.first);
    const std::size_t cc = clamp_axis(p.second);
    const std::size_t r_lo = cr == 0 ? 0 : cr - 1;
    const std::size_t r_hi = std::min(cr + 1, side_ - 1);
    const std::size_t c_lo = cc == 0 ? 0 : cc - 1;
    const std::size_t c_hi = std::min(cc + 1, side_ - 1);
    for (std::size_t r = r_lo; r <= r_hi; ++r) {
      for (std::size_t c = c_lo; c <= c_hi; ++c) {
        const std::size_t cell = r * side_ + c;
        for (std::size_t m = offsets_[cell]; m < offsets_[cell + 1]; ++m) {
          out.push_back(members_[m]);
        }
      }
    }
  }

 private:
  /// Cells of side ≥ radius (so the 3×3 stencil covers the disc), capped
  /// near √n per axis so a tiny radius cannot allocate more cells than
  /// points.
  [[nodiscard]] static std::size_t grid_side(std::size_t n, double radius) {
    const auto from_radius = static_cast<std::size_t>(1.0 / std::min(radius, 1.0));
    const auto from_points =
        static_cast<std::size_t>(std::sqrt(static_cast<double>(n))) + 1;
    return std::max<std::size_t>(1, std::min(from_radius, from_points));
  }

  [[nodiscard]] std::size_t clamp_axis(double x) const {
    const auto c = static_cast<std::size_t>(
        std::max(0.0, x) * static_cast<double>(side_));
    return std::min(c, side_ - 1);
  }
  [[nodiscard]] std::size_t cell_of(const std::pair<double, double>& p) const {
    return clamp_axis(p.first) * side_ + clamp_axis(p.second);
  }

  std::size_t side_;
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> members_;
};

}  // namespace

Topology Topology::random_geometric(std::size_t n, double radius,
                                    stats::Rng& rng, std::size_t max_attempts) {
  DDC_EXPECTS(n >= 2 && n <= kMaxNodes);
  DDC_EXPECTS(radius > 0.0);
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<std::pair<double, double>> pos(n);
    for (auto& p : pos) p = {rng.uniform(), rng.uniform()};
    const double r2 = radius * radius;
    const CellIndex index(pos, radius);
    Builder b(n, Builder::Kind::undirected);
    std::vector<NodeId> candidates;
    std::vector<NodeId> hits;
    for (NodeId i = 0; i < n; ++i) {
      candidates.clear();
      index.stencil(pos[i], candidates);
      hits.clear();
      for (const NodeId j : candidates) {
        if (j <= i) continue;  // each pair once, owned by its lower index
        const double dx = pos[i].first - pos[j].first;
        const double dy = pos[i].second - pos[j].second;
        if (dx * dx + dy * dy <= r2) hits.push_back(j);
      }
      // Ascending j reproduces the historical all-pairs scan's edge
      // insertion order, keeping neighbor lists (and thus every engine
      // draw downstream) bit-identical to the seed era.
      std::sort(hits.begin(), hits.end());
      for (const NodeId j : hits) b.add_undirected(i, j);
    }
    Topology t = std::move(b).finish();
    if (t.is_connected()) {
      t.positions_ = std::move(pos);
      return t;
    }
  }
  throw ConfigError(
      "random_geometric: no connected placement found; increase the radius");
}

Topology Topology::erdos_renyi(std::size_t n, double p, stats::Rng& rng,
                               std::size_t max_attempts) {
  DDC_EXPECTS(n >= 2);
  DDC_EXPECTS(p > 0.0 && p <= 1.0);
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    Builder b(n, Builder::Kind::undirected);
    if (p >= 1.0) {
      for (NodeId i = 0; i < n; ++i) {
        for (NodeId j = i + 1; j < n; ++j) b.add_undirected(i, j);
      }
    } else {
      // Batagelj–Brandes skip sampling: instead of a Bernoulli draw per
      // pair (quadratic — hopeless at 10⁵–10⁶ nodes), draw the geometric
      // gap to the next present edge in the ordered pair sequence
      // (1,0), (2,0), (2,1), (3,0), ... — O(n + m) draws total.
      const double log1mp = std::log1p(-p);
      std::size_t v = 1;
      // w walks the pairs (v, w), w < v; start one before the first.
      auto w = static_cast<std::ptrdiff_t>(-1);
      while (v < n) {
        const double r = rng.uniform();
        w += 1 + static_cast<std::ptrdiff_t>(
                     std::floor(std::log1p(-r) / log1mp));
        while (v < n && w >= static_cast<std::ptrdiff_t>(v)) {
          w -= static_cast<std::ptrdiff_t>(v);
          ++v;
        }
        if (v < n) {
          b.add_undirected(static_cast<NodeId>(v), static_cast<NodeId>(w));
        }
      }
    }
    Topology t = std::move(b).finish();
    if (t.is_connected()) return t;
  }
  throw ConfigError("erdos_renyi: no connected draw found; increase p");
}

std::span<const NodeId> Topology::neighbors(NodeId i) const {
  DDC_EXPECTS(i < num_nodes_);
  return {targets_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
}

bool Topology::has_edge(NodeId i, NodeId j) const {
  DDC_EXPECTS(i < num_nodes_ && j < num_nodes_);
  const auto nbrs = neighbors(i);
  return std::find(nbrs.begin(), nbrs.end(), j) != nbrs.end();
}

namespace {

/// Nodes reachable from `start` following a CSR edge set.
std::size_t reachable_count(std::size_t n,
                            const std::vector<std::size_t>& offsets,
                            const std::vector<NodeId>& targets, NodeId start) {
  std::vector<bool> seen(n, false);
  std::vector<NodeId> frontier;
  frontier.push_back(start);
  seen[start] = true;
  std::size_t count = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (std::size_t e = offsets[u]; e < offsets[u + 1]; ++e) {
      const NodeId v = targets[e];
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        frontier.push_back(v);
      }
    }
  }
  return count;
}

}  // namespace

bool Topology::is_connected() const {
  if (num_nodes_ <= 1) return true;
  // Strong connectivity: everyone reachable from 0 following edges, and 0
  // reachable from everyone (equivalently: everyone reachable from 0 in
  // the reverse graph). An undirected graph is its own reverse, so the
  // first pass settles it.
  if (reachable_count(num_nodes_, offsets_, targets_, 0) != num_nodes_) {
    return false;
  }
  if (undirected_) return true;
  // Reverse CSR via one more counting pass.
  std::vector<std::size_t> rev_offsets(num_nodes_ + 1, 0);
  for (const NodeId v : targets_) ++rev_offsets[v + 1];
  for (std::size_t i = 0; i < num_nodes_; ++i) {
    rev_offsets[i + 1] += rev_offsets[i];
  }
  std::vector<NodeId> rev_targets(targets_.size());
  std::vector<std::size_t> cursor(rev_offsets.begin(), rev_offsets.end() - 1);
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (std::size_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
      rev_targets[cursor[targets_[e]]++] = u;
    }
  }
  return reachable_count(num_nodes_, rev_offsets, rev_targets, 0) ==
         num_nodes_;
}

std::size_t Topology::diameter() const {
  DDC_EXPECTS(is_connected());
  std::size_t best = 0;
  std::vector<std::size_t> dist(num_nodes_);
  for (NodeId s = 0; s < num_nodes_; ++s) {
    std::fill(dist.begin(), dist.end(), SIZE_MAX);
    std::queue<NodeId> frontier;
    dist[s] = 0;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (std::size_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const NodeId v = targets_[e];
        if (dist[v] == SIZE_MAX) {
          dist[v] = dist[u] + 1;
          frontier.push(v);
        }
      }
    }
    for (const std::size_t d : dist) best = std::max(best, d);
  }
  return best;
}

}  // namespace ddc::sim
