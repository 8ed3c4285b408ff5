// Quickstart: distributed classification in ~40 lines.
//
// Eight nodes on a ring each hold one scalar reading; they gossip until
// everyone knows the same two-collection classification of all eight
// values — without any node ever seeing the raw data set.
//
//   $ ./quickstart
#include <iostream>

#include <ddc/shard/factories.hpp>

int main() {
  using ddc::linalg::Vector;

  // One input value per node: five readings near 10, three near 50.
  const std::vector<Vector> inputs = {
      Vector{10.2}, Vector{9.7},  Vector{10.5}, Vector{49.8},
      Vector{10.1}, Vector{50.4}, Vector{9.9},  Vector{50.0}};

  // Protocol parameters: at most k=2 collections per node.
  ddc::sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = 42;

  // A ring of 8 nodes running the centroids instantiation (Algorithm 2).
  auto runner = ddc::shard::make_centroid_round_runner(
      ddc::sim::Topology::ring(inputs.size()), inputs, config);

  runner.run_rounds(200);

  // Every node now holds (almost exactly) the same classification.
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& c = runner.nodes()[i].classification();
    std::cout << "node " << i << " sees:";
    for (std::size_t j = 0; j < c.size(); ++j) {
      std::cout << "  [centroid " << c[j].summary[0] << ", share "
                << c.relative_weight(j) << "]";
    }
    std::cout << '\n';
  }
  return 0;
}
