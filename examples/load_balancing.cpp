// The introduction's grid-computing scenario: machines with bimodal load
// (half ~10 %, half ~90 %) learn a two-collection classification of the
// system's load distribution and then decide — each machine locally —
// whether it belongs with the heavily loaded collection and should stop
// accepting new requests.
//
// The punchline from the paper: the decision depends on the GLOBAL
// classification, not on a fixed threshold. A machine at 60 % load stops
// serving when the collections sit at 10 %/90 % (it is "heavy") but keeps
// serving when they sit at 50 %/80 % (it is "light").
//
//   $ ./load_balancing
#include <cmath>
#include <iostream>

#include <ddc/shard/factories.hpp>
#include <ddc/workload/scenarios.hpp>

namespace {

/// Runs a centroid classification over machine loads and reports how the
/// probe machine (index 0, with the given load) classifies itself.
void classify_probe(double probe_load, double low_center, double high_center) {
  ddc::stats::Rng rng(5);
  const std::size_t n = 100;
  std::vector<ddc::linalg::Vector> loads =
      ddc::workload::load_balancing_inputs(n, rng, low_center, high_center);
  loads[0] = ddc::linalg::Vector{probe_load};

  ddc::sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = 13;
  auto runner = ddc::shard::make_centroid_round_runner(
      ddc::sim::Topology::erdos_renyi(n, 0.1, rng), loads, config);
  runner.run_rounds(150);

  const auto& c = runner.nodes()[0].classification();
  // Which collection does the probe's own load fit best (nearest centroid)?
  std::size_t best = 0;
  for (std::size_t j = 1; j < c.size(); ++j) {
    if (std::abs(c[j].summary[0] - probe_load) <
        std::abs(c[best].summary[0] - probe_load)) {
      best = j;
    }
  }
  std::size_t heavy = 0;
  for (std::size_t j = 1; j < c.size(); ++j) {
    if (c[j].summary[0] > c[heavy].summary[0]) heavy = j;
  }
  std::cout << "  cluster centers seen by the probe: ";
  for (std::size_t j = 0; j < c.size(); ++j) {
    std::cout << c[j].summary[0] * 100.0 << "%"
              << (j + 1 < c.size() ? " / " : "");
  }
  std::cout << "\n  probe at " << probe_load * 100.0 << "% load -> "
            << (best == heavy ? "HEAVY: stop taking new requests"
                              : "light: keep serving")
            << "\n\n";
}

}  // namespace

int main() {
  std::cout << "Scenario A: loads cluster at ~10% and ~90%\n";
  classify_probe(0.60, 0.10, 0.90);

  std::cout << "Scenario B: loads cluster at ~50% and ~80%\n";
  classify_probe(0.60, 0.50, 0.80);
  return 0;
}
