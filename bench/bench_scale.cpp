// bench_scale — throughput and memory benchmark for the round engine's
// pool storage (the SoA engine; --engine object for object storage, for
// comparison) at 10k–1M nodes.
//
// One configuration per process invocation, so getrusage peak-RSS is a
// clean per-configuration high-water mark. Prints exactly one JSON
// object line:
//
//   {"name":"centroid/ring/10000","nodes":10000,...,"rounds_per_s":...,
//    "peak_rss_mb":...}
//
// scripts/bench_scale.sh runs the tier list and assembles the numbers
// that live in BENCH_scale.json; scripts/bench_gate.sh --scale compares
// fresh runs against that baseline.
//
// The flag surface is the shared engine surface (cli::engine_flags) —
// the same --topology/--nodes/--radius/--er-prob/--threads/--engine
// flags ddcsim takes — plus --protocol and --rounds. Note that the
// TopologySpec density defaults (radius = max(0.15, 2/√n)) are sized
// for paper-scale runs; at 10⁵–10⁶ nodes always pass an explicit sparse
// --radius / --er-prob or the graph itself dwarfs memory.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>

#include <ddc/cli/engine_flags.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/linalg/simd.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/workload/scenarios.hpp>

namespace {

using ddc::linalg::Vector;

/// Peak resident set of this process in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Measurement {
  std::size_t alive = 0;
  double build_s = 0.0;
  double run_s = 0.0;
};

template <typename MakeEngine>
Measurement measure(std::size_t rounds, MakeEngine make_engine) {
  using Clock = std::chrono::steady_clock;
  Measurement m;
  const auto t0 = Clock::now();
  auto engine = make_engine();
  const auto t1 = Clock::now();
  engine.run_rounds(rounds);
  const auto t2 = Clock::now();
  m.build_s = std::chrono::duration<double>(t1 - t0).count();
  m.run_s = std::chrono::duration<double>(t2 - t1).count();
  m.alive = engine.alive_count();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  ddc::cli::Flags flags("bench_scale",
                        "scale-engine throughput / peak-RSS benchmark "
                        "(one configuration per invocation, JSON output)");
  flags.declare("protocol", "gm | centroid", "centroid");
  flags.declare("rounds", "gossip rounds to time", "10");
  flags.declare("name", "label for the JSON record (default: derived)", "");
  ddc::cli::EngineFlagSet set;
  set.timing = false;
  ddc::cli::declare_engine_flags(flags, {}, set);

  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help_text();
      return 0;
    }
    ddc::sim::EngineConfig config =
        ddc::cli::parse_engine_config(flags, {}, set);
    ddc::linalg::simd::configure(config.simd);
    const std::string protocol = flags.get("protocol");
    const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));

    // Topology first: grid packing can round the vertex count up, and
    // the engine needs one input per vertex.
    ddc::stats::Rng rng(config.protocol_seed);
    ddc::sim::Topology topology = config.build_topology(rng);
    const std::size_t n = topology.num_nodes();
    const std::size_t edges = topology.num_edges();
    const std::vector<Vector> inputs =
        ddc::workload::two_clusters_inputs(n, rng);

    // Pool storage (soa) or object storage: one engine either way, only
    // the factory differs.
    const bool pools = config.use_soa();
    const auto run = [&](auto make_pools, auto make_objects) {
      return pools ? measure(rounds, make_pools)
                   : measure(rounds, make_objects);
    };
    Measurement m;
    if (protocol == "centroid") {
      m = run(
          [&] {
            return ddc::gossip::make_centroid_scale_engine(
                std::move(topology), inputs, config);
          },
          [&] {
            return ddc::shard::make_centroid_round_runner(std::move(topology),
                                                          inputs, config);
          });
    } else if (protocol == "gm") {
      m = run(
          [&] {
            return ddc::gossip::make_gm_scale_engine(std::move(topology),
                                                     inputs, config);
          },
          [&] {
            return ddc::shard::make_gm_round_runner(std::move(topology),
                                                    inputs, config);
          });
    } else {
      throw ddc::ConfigError("unknown protocol '" + protocol + "'");
    }
    const std::string engine_name = pools ? "soa" : "object";

    std::string name = flags.get("name");
    if (name.empty()) {
      name = protocol + "/" +
             ddc::sim::topology_family_name(config.topology.family) + "/" +
             std::to_string(n);
    }

    // One record per line; keys are stable for the awk in bench_gate.sh.
    std::printf(
        "{\"name\":\"%s\",\"engine\":\"%s\",\"nodes\":%zu,\"edges\":%zu,"
        "\"threads\":%zu,\"rounds\":%zu,\"alive\":%zu,\"build_s\":%.4f,"
        "\"run_s\":%.4f,\"rounds_per_s\":%.4f,\"peak_rss_mb\":%.1f}\n",
        name.c_str(), engine_name.c_str(), n, edges, config.parallelism,
        rounds, m.alive, m.build_s, m.run_s,
        static_cast<double>(rounds) / m.run_s, peak_rss_mb());
    return 0;
  } catch (const ddc::Error& e) {
    std::cerr << "bench_scale: " << e.what() << '\n';
    return 1;
  }
}
