// Ablation — gossip pattern and neighbor selection.
//
// Section 4.1 allows round-robin or randomized neighbor choice and push /
// push-pull exchange patterns. This bench measures rounds-to-agreement for
// each combination (note push-pull moves 2 messages per initiator per
// round, so compare message counts, not just rounds).
#include <iostream>

#include <ddc/io/table.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/summaries/centroid.hpp>

#include "bench_util.hpp"

int main() {
  const std::size_t n = 64;
  std::cout << "=== Ablation: gossip pattern x neighbor selection (n = " << n
            << ", torus, centroid algorithm) ===\n\n";

  ddc::stats::Rng rng(90);
  std::vector<ddc::linalg::Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(ddc::linalg::Vector{
        i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(100.0, 1.0)});
  }

  struct Combo {
    const char* name;
    ddc::sim::NeighborSelection selection;
    ddc::sim::GossipPattern pattern;
  };
  const Combo combos[] = {
      {"push / round-robin", ddc::sim::NeighborSelection::round_robin,
       ddc::sim::GossipPattern::push},
      {"push / uniform", ddc::sim::NeighborSelection::uniform_random,
       ddc::sim::GossipPattern::push},
      {"push-pull / round-robin", ddc::sim::NeighborSelection::round_robin,
       ddc::sim::GossipPattern::push_pull},
      {"push-pull / uniform", ddc::sim::NeighborSelection::uniform_random,
       ddc::sim::GossipPattern::push_pull},
  };

  // The four combos are independent runs — fan them across the bench pool.
  const auto rounds_per_combo =
      ddc::bench::sweep(std::size(combos), [&](std::size_t ci) {
        const Combo& combo = combos[ci];
        ddc::sim::EngineConfig config;
        config.k = 2;
        config.quanta_per_unit = std::int64_t{1} << 40;
        config.protocol_seed = 91;
        config.selection = combo.selection;
        config.pattern = combo.pattern;
        config.seed = 92;
        auto runner = ddc::shard::make_centroid_round_runner(
            ddc::sim::Topology::grid(8, 8, /*torus=*/true), inputs, config);
        return ddc::bench::run_until_agreement<ddc::summaries::CentroidPolicy>(
            runner, 1e-3, 5, 10000);
      });

  ddc::io::Table table({"pattern / selection", "rounds to agreement",
                        "messages (approx)"});
  for (std::size_t ci = 0; ci < std::size(combos); ++ci) {
    const Combo& combo = combos[ci];
    const std::size_t rounds = rounds_per_combo[ci];
    const std::size_t per_round =
        combo.pattern == ddc::sim::GossipPattern::push ? n : 2 * n;
    table.add_row({std::string(combo.name), static_cast<long long>(rounds),
                   static_cast<long long>(rounds * per_round)});
  }
  table.print(std::cout);
  std::cout << "\n(push-pull roughly halves rounds at twice the messages "
               "per round — useful when latency dominates)\n";
  return 0;
}
