// Robust average in the presence of outliers (the paper's Section 5.3.2
// application): 950 sensors read values from N((0,0), I); 50 faulty
// sensors report values near (0, Δ). Plain average aggregation is dragged
// toward the outliers; the GM classifier with k = 2 isolates them in their
// own collection and averages only the good one.
//
//   $ ./robust_average [delta] [rounds]
#include <cstdlib>
#include <iostream>

#include <ddc/metrics/outlier_metrics.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/workload/scenarios.hpp>

int main(int argc, char** argv) {
  const double delta = argc > 1 ? std::strtod(argv[1], nullptr) : 10.0;
  const std::size_t rounds = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 40;

  ddc::stats::Rng rng(21);
  const ddc::workload::OutlierScenario scenario =
      ddc::workload::outlier_scenario(delta, rng);
  const std::size_t n = scenario.inputs.size();

  // GM classifier network, k = 2 (one collection for good values, one for
  // outliers), with auxiliary tracking so we can audit the separation.
  ddc::sim::EngineConfig config;
  config.k = 2;
  config.track_aux = true;
  config.protocol_seed = 3;
  auto runner = ddc::shard::make_gm_round_runner(
      ddc::sim::Topology::complete(n), scenario.inputs, config);

  // Baseline: plain push-sum average aggregation on the same inputs.
  auto baseline = ddc::shard::make_push_sum_round_runner(
      ddc::sim::Topology::complete(n), scenario.inputs);

  runner.run_rounds(rounds);
  baseline.run_rounds(rounds);

  double robust = 0.0;
  double regular = 0.0;
  double missed = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    robust += ddc::metrics::robust_mean_error(
                  runner.nodes()[i].classification(), scenario.true_mean) /
              static_cast<double>(n);
    regular += ddc::linalg::distance2(baseline.nodes()[i].estimate(),
                                      scenario.true_mean) /
               static_cast<double>(n);
    missed += ddc::metrics::missed_outlier_ratio(
                  runner.nodes()[i].classification(), scenario.outlier_flags) /
              static_cast<double>(n);
  }

  std::cout << "Outliers at distance delta = " << delta << " (" << rounds
            << " rounds, " << n << " nodes)\n"
            << "  robust mean error (GM, k=2):      " << robust << '\n'
            << "  regular mean error (push-sum):    " << regular << '\n'
            << "  outlier weight missed by the GM:  " << missed * 100.0
            << " %\n";
  return 0;
}
