// Running the protocol with live runtime verification.
//
// The library ships the paper's proof machinery as executable auditors
// (ddc::audit): exact weight conservation, Lemma 1 (summaries equal the
// summarized collections), and Lemma 2 (monotone reference angles). This
// example runs a small network with every invariant checked after every
// round — the way you would validate a modified partition policy or a new
// summary domain before trusting it.
//
//   $ ./verified_run
#include <iostream>

#include <ddc/audit/auditors.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/gaussian_summary.hpp>

int main() {
  using ddc::linalg::Vector;
  using ddc::summaries::GaussianPolicy;

  ddc::stats::Rng rng(33);
  const std::size_t n = 12;
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 12.0, 1.0),
                            rng.normal(0.0, 1.0)});
  }

  ddc::sim::EngineConfig config;
  config.k = 2;
  config.track_aux = true;  // auditors need the mixture-space vectors
  config.protocol_seed = 33;

  auto runner = ddc::shard::make_gm_round_runner(ddc::sim::Topology::ring(n),
                                                 inputs, config);

  ddc::audit::ReferenceAngleMonitor angles(n);
  const std::int64_t expected_quanta =
      static_cast<std::int64_t>(n) * config.quanta_per_unit;

  const std::size_t rounds = 150;
  try {
    for (std::size_t r = 0; r < rounds; ++r) {
      runner.run_round();
      // The round runner leaves no messages in flight between rounds, so
      // the pool is exactly the union of node classifications.
      const auto pool = ddc::audit::collect_pool<ddc::stats::Gaussian>(
          runner.nodes(),
          std::vector<ddc::core::Classification<ddc::stats::Gaussian>>{});
      ddc::audit::check_conservation(pool, expected_quanta);
      ddc::audit::check_lemma1<GaussianPolicy>(pool, inputs,
                                               config.quanta_per_unit, 1e-6);
      angles.observe(pool);
    }
  } catch (const ddc::audit::AuditFailure& failure) {
    std::cerr << "INVARIANT VIOLATED: " << failure.what() << '\n';
    return 1;
  }

  std::cout << "ran " << rounds << " rounds on a ring of " << n
            << " nodes;\nevery round passed: exact conservation ("
            << expected_quanta << " quanta), Lemma 1 (summary = f(aux), "
            << "weight = ‖aux‖₁), Lemma 2 (monotone reference "
               "angles).\n\nfinal classification at node 0:\n";
  const auto& c = runner.nodes()[0].classification();
  for (std::size_t j = 0; j < c.size(); ++j) {
    std::cout << "  mean (" << c[j].summary.mean()[0] << ", "
              << c[j].summary.mean()[1] << "), share "
              << c.relative_weight(j) << '\n';
  }
  return 0;
}
