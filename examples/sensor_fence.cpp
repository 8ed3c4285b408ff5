// The paper's Section 5.3.1 scenario: temperature sensors on a fence by
// the woods, the right end close to a fire outbreak. Each sensor holds one
// (position, temperature) sample; the network runs the Gaussian-Mixture
// algorithm (k = 7) and every sensor converges to a mixture describing the
// whole fence — from which it can tell, locally, whether it sits in the
// fire zone.
//
//   $ ./sensor_fence [num_sensors] [rounds]
#include <cstdlib>
#include <iostream>

#include <ddc/em/em_points.hpp>
#include <ddc/io/table.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/workload/scenarios.hpp>

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 300;
  const std::size_t rounds = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 60;

  // Ground truth (three Gaussians in R²) and one sample per sensor.
  const ddc::stats::GaussianMixture truth = ddc::workload::fig2_mixture();
  ddc::stats::Rng rng(7);
  const auto inputs = ddc::workload::sample_inputs(truth, n, rng);

  // How to pick k in practice: BIC model selection on any local sample
  // suggests the component count; the protocol then wants some slack on
  // top (see bench/abl_k_sweep). Here the sample is the raw input set.
  {
    std::vector<ddc::stats::WeightedValue> sample;
    for (const auto& v : inputs) sample.push_back({v, 1.0});
    ddc::stats::Rng bic_rng(11);
    const auto choice = ddc::em::select_k(sample, 6, bic_rng);
    std::cout << "BIC suggests " << choice.best_k
              << " components; running with k = 7 (component count + "
                 "slack, the paper's choice)\n\n";
  }

  ddc::sim::EngineConfig config;
  config.k = 7;  // the paper's Fig. 2 parameter
  config.protocol_seed = 7;

  // Sensors communicate by radio range: a random geometric graph.
  auto runner = ddc::shard::make_gm_round_runner(
      ddc::sim::Topology::random_geometric(n, 0.15, rng), inputs, config);
  runner.run_rounds(rounds);

  // Any sensor's view of the fence (they all agree by now) — take node 0.
  const auto mixture =
      ddc::summaries::to_mixture(runner.nodes()[0].classification());

  ddc::io::Table table({"collection", "weight", "pos", "temp", "var(pos)",
                        "var(temp)", "cov"});
  for (std::size_t j = 0; j < mixture.size(); ++j) {
    const auto& g = mixture[j].gaussian;
    table.add_row({static_cast<long long>(j), mixture[j].weight, g.mean()[0],
                   g.mean()[1], g.cov()(0, 0), g.cov()(1, 1), g.cov()(0, 1)});
  }
  std::cout << "Node 0's view of the fence after " << rounds << " rounds ("
            << n << " sensors):\n\n";
  table.print(std::cout);

  // Local decision making: each sensor classifies ITS OWN reading against
  // the learned mixture and raises an alarm if its component is hot.
  std::size_t alarms = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto view =
        ddc::summaries::to_mixture(runner.nodes()[i].classification());
    const std::size_t comp = view.classify(inputs[i]);
    if (view[comp].gaussian.mean()[1] > 25.0) ++alarms;
  }
  std::cout << "\nSensors self-classified into the hot (>25°) component: "
            << alarms << " / " << n << '\n';
  return 0;
}
