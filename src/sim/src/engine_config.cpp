#include <ddc/sim/engine_config.hpp>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include <ddc/common/error.hpp>

namespace ddc::sim {

TopologyFamily parse_topology_family(const std::string& name) {
  if (name == "complete") return TopologyFamily::complete;
  if (name == "ring") return TopologyFamily::ring;
  if (name == "dring") return TopologyFamily::directed_ring;
  if (name == "line") return TopologyFamily::line;
  if (name == "star") return TopologyFamily::star;
  if (name == "grid") return TopologyFamily::grid;
  if (name == "torus") return TopologyFamily::torus;
  if (name == "geometric") return TopologyFamily::geometric;
  if (name == "er") return TopologyFamily::erdos_renyi;
  throw ConfigError("unknown topology '" + name +
                    "' (complete | ring | dring | line | star | grid | "
                    "torus | geometric | er)");
}

const char* topology_family_name(TopologyFamily family) {
  switch (family) {
    case TopologyFamily::complete: return "complete";
    case TopologyFamily::ring: return "ring";
    case TopologyFamily::directed_ring: return "dring";
    case TopologyFamily::line: return "line";
    case TopologyFamily::star: return "star";
    case TopologyFamily::grid: return "grid";
    case TopologyFamily::torus: return "torus";
    case TopologyFamily::geometric: return "geometric";
    case TopologyFamily::erdos_renyi: return "er";
  }
  return "?";
}

double TopologySpec::resolved_radius() const {
  if (radius > 0.0) return radius;
  return std::max(0.15, 2.0 / std::sqrt(static_cast<double>(nodes)));
}

double TopologySpec::resolved_edge_probability() const {
  if (edge_probability > 0.0) return edge_probability;
  return std::max(0.05, 8.0 / static_cast<double>(nodes));
}

Topology TopologySpec::build(stats::Rng& rng) const {
  const std::size_t n = nodes;
  switch (family) {
    case TopologyFamily::complete:
      return Topology::complete(n);
    case TopologyFamily::ring:
      return Topology::ring(n);
    case TopologyFamily::directed_ring:
      return Topology::directed_ring(n);
    case TopologyFamily::line:
      return Topology::line(n);
    case TopologyFamily::star:
      return Topology::star(n);
    case TopologyFamily::grid:
    case TopologyFamily::torus: {
      // Most-square exact factorization: rows is the largest divisor of
      // n with rows ≤ √n, so rows·cols == n precisely. The historical
      // ⌊√n⌋ packing rounded the vertex count UP for non-square n
      // (100000 → 316×317 = 100172), which breaks the engines' hard
      // one-node-per-vertex invariant. Prime n degenerates to a 1×n
      // line-with-torus-wrap; pass a composite node count for a real
      // 2-D lattice.
      std::size_t rows = 1;
      while ((rows + 1) * (rows + 1) <= n) ++rows;
      while (rows > 1 && n % rows != 0) --rows;
      return Topology::grid(rows, n / rows,
                            family == TopologyFamily::torus);
    }
    case TopologyFamily::geometric:
      return Topology::random_geometric(n, resolved_radius(), rng);
    case TopologyFamily::erdos_renyi:
      return Topology::erdos_renyi(n, resolved_edge_probability(), rng);
  }
  throw ConfigError("unhandled topology family");
}

AsyncRunnerOptions EngineConfig::async_options() const {
  AsyncRunnerOptions options;
  static_cast<CommonRunnerOptions&>(options) =
      static_cast<const CommonRunnerOptions&>(*this);
  options.mean_tick_interval = async.mean_tick_interval;
  options.min_delay = async.min_delay;
  options.max_delay = async.max_delay;
  return options;
}

Topology EngineConfig::build_topology(stats::Rng& rng) const {
  return topology.build(rng);
}

bool EngineConfig::use_soa() const noexcept {
  return backend == EngineBackend::soa;
}

void EngineConfig::validate() const {
  if (topology.nodes < 2) throw ConfigError("topology.nodes must be ≥ 2");
  // Node ids are 32-bit, and the largest id value means "no target".
  if (topology.nodes > kMaxNodes) {
    throw ConfigError("topology.nodes (" + std::to_string(topology.nodes) +
                      ") must be below 2^32 - 1 (" +
                      std::to_string(kMaxNodes + 1) +
                      "): node ids are 32-bit");
  }
  if (topology.radius < 0.0) throw ConfigError("topology.radius must be ≥ 0");
  if (topology.edge_probability < 0.0 || topology.edge_probability > 1.0) {
    throw ConfigError("topology.edge_probability must be in [0, 1]");
  }
  if (crash_probability < 0.0 || crash_probability > 1.0) {
    throw ConfigError("crash_probability must be in [0, 1]");
  }
  if (message_loss_probability < 0.0 || message_loss_probability > 1.0) {
    throw ConfigError("message_loss_probability must be in [0, 1]");
  }
  if (k == 0) throw ConfigError("k must be ≥ 1");
  if (quanta_per_unit < 1) throw ConfigError("quanta_per_unit must be ≥ 1");
  // Lemma 1's total weight W = n · quanta_per_unit must fit the int64
  // weight sums with headroom: at most 2^62.
  if (static_cast<std::uint64_t>(quanta_per_unit) >
      (std::uint64_t{1} << 62) / topology.nodes) {
    throw ConfigError("topology.nodes (" + std::to_string(topology.nodes) +
                      ") × quanta_per_unit (" +
                      std::to_string(quanta_per_unit) + ") must be ≤ 2^62");
  }
  if (async.mean_tick_interval <= 0.0) {
    throw ConfigError("async.mean_tick_interval must be > 0");
  }
  if (async.min_delay < 0.0 || async.min_delay > async.max_delay) {
    throw ConfigError("async delays must satisfy 0 ≤ min_delay ≤ max_delay");
  }
}

}  // namespace ddc::sim
