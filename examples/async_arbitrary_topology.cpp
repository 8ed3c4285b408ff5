// Theorem 1 live: the protocol converges on an arbitrary connected
// topology under full asynchrony — random per-message delays, no rounds,
// no synchronized clocks. This example builds a sparse random geometric
// network (a simulated sensor field), runs the GM classifier on the
// event-driven asynchronous engine, and reports inter-node disagreement as
// (simulated) time passes.
//
//   $ ./async_arbitrary_topology [num_nodes] [sim_time]
#include <cstdlib>
#include <iostream>

#include <ddc/gossip/runners.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/summaries/gaussian_summary.hpp>

int main(int argc, char** argv) {
  using ddc::linalg::Vector;
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;
  const double sim_time = argc > 2 ? std::strtod(argv[2], nullptr) : 400.0;

  ddc::stats::Rng rng(19);
  // Bimodal 1-D inputs: two "regimes" the network should discover.
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(
        Vector{i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(25.0, 2.0)});
  }

  ddc::sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = 19;
  config.seed = 19;
  config.async.mean_tick_interval = 1.0;
  config.async.min_delay = 0.05;
  config.async.max_delay = 3.0;  // delays exceed ticks → heavy reordering

  auto runner = ddc::gossip::make_gm_async_runner(
      ddc::sim::Topology::random_geometric(n, 0.3, rng), inputs, config);

  std::cout << "time   messages   max disagreement vs node 0\n";
  for (double t = sim_time / 8.0; t <= sim_time; t += sim_time / 8.0) {
    runner.run_until(t);
    const double disagreement = ddc::metrics::max_disagreement_vs_first<
        ddc::summaries::GaussianPolicy>(runner.nodes());
    std::cout.width(5);
    std::cout << t << "   ";
    std::cout.width(8);
    std::cout << runner.messages_delivered() << "   " << disagreement << '\n';
  }

  const auto& c = runner.nodes()[0].classification();
  std::cout << "\nnode 0's final classification:\n";
  for (std::size_t j = 0; j < c.size(); ++j) {
    std::cout << "  mean " << c[j].summary.mean()[0] << "  (share "
              << c.relative_weight(j) << ")\n";
  }
  return 0;
}
