// Ablation — message size on the wire.
//
// The paper claims its message size "is similar to [Datta et al. /
// Kowalczyk & Vlassis], dependent only on the parameters of the dataset,
// and not on the number of nodes". With the binary wire format this is
// measurable in bytes: we encode real protocol messages from live runs at
// several network sizes and report the observed sizes, plus the analytic
// cost per collection for each summary type.
#include <algorithm>
#include <array>
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/wire/serialize.hpp>

#include "bench_util.hpp"

int main() {
  std::cout << "=== Ablation: wire message size vs network size ===\n\n";

  // Flatten the n × k grid; every cell is an independent pair of runs.
  const std::vector<std::size_t> sizes = {16, 64, 256, 1024};
  const std::vector<std::size_t> ks = {2, 7};
  const auto rows =
      ddc::bench::sweep(sizes.size() * ks.size(), [&](std::size_t cell) {
        const std::size_t n = sizes[cell / ks.size()];
        const std::size_t k = ks[cell % ks.size()];
        ddc::stats::Rng rng(110);
        std::vector<ddc::linalg::Vector> inputs;
        for (std::size_t i = 0; i < n; ++i) {
          inputs.push_back(ddc::linalg::Vector{
              rng.normal(i % 2 == 0 ? 0.0 : 20.0, 1.0), rng.normal()});
        }
        ddc::sim::EngineConfig config;
        config.k = k;
        config.protocol_seed = 111;

        auto gm = ddc::shard::make_gm_round_runner(
            ddc::sim::Topology::complete(n), inputs, config);
        auto cent = ddc::shard::make_centroid_round_runner(
            ddc::sim::Topology::complete(n), inputs, config);
        gm.run_rounds(15);  // let classifications fill to k collections
        cent.run_rounds(15);

        std::size_t max_gm = 0;
        for (auto& node : gm.nodes()) {
          max_gm = std::max(
              max_gm, ddc::wire::encode_classification(node.prepare_message())
                          .size());
        }
        std::size_t max_cent = 0;
        for (auto& node : cent.nodes()) {
          max_cent = std::max(
              max_cent, ddc::wire::encode_classification(node.prepare_message())
                            .size());
        }
        ddc::gossip::PushSumNode ps(inputs[0]);
        const std::size_t ps_bytes =
            ddc::wire::encode_push_sum(ps.prepare_message()).size();
        return std::array<std::size_t, 5>{n, k, max_gm, max_cent, ps_bytes};
      });

  ddc::io::Table table({"n", "k", "max GM msg bytes", "max centroid msg bytes",
                        "push-sum msg bytes"});
  for (const auto& row : rows) {
    table.add_row({static_cast<long long>(row[0]),
                   static_cast<long long>(row[1]),
                   static_cast<long long>(row[2]),
                   static_cast<long long>(row[3]),
                   static_cast<long long>(row[4])});
  }
  table.print(std::cout);
  std::cout
      << "\nper-collection cost in R^d: centroid 8d+9, Gaussian "
         "8(d + d(d+1)/2)+9+1 bytes; TOTAL message cost is k·(that) + 6 "
         "header bytes — independent of n, the paper's bandwidth claim\n";
  return 0;
}
