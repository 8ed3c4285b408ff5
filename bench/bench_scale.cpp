// bench_scale — throughput and memory benchmark for the round engine at
// 10k–1M nodes, on one shard or on an in-process cluster of shards.
//
// --shards 1 (the default) runs the one-shard engine: pool storage (the
// SoA engine), or object storage with --engine object. --shards S > 1
// runs a ShardCluster of S object-storage engines over a loopback fabric,
// its ownership map picked by --shard-map. Pool storage has no row codec
// for the shard exchange, so --engine soa with S > 1 is an error.
//
// One configuration per process invocation, so getrusage peak-RSS is a
// clean per-configuration high-water mark. Prints exactly one JSON
// object line, in one schema for every shard count:
//
//   {"name":"centroid/ring/10000","engine":"soa",...,"nproc":4,
//    "threads":1,"shards":1,"shard_map":"contiguous",...,
//    "topology_s":...,"rounds_per_s":...,"cut_edges":0,...,"peak_rss_mb":...}
//
// The exchange counters (cut_edges, frames_per_round, records_per_frame,
// retransmits, boundary_nodes, polls_during_compute) are summed over the
// shards and are 0 on one shard. frames_per_round and records_per_frame
// measure the batching the exchange exists for: S*(S-1) frames per round
// regardless of message volume, every cross-shard message inside one.
//
// scripts/bench_gate.sh runs the tier lists against BENCH_scale.json:
// --scale the 10k-node tier, --scale-full adds the 100k and 1M tiers,
// --cluster the loopback-cluster tier, and the *-update modes print the
// numbers that live there.
//
// The flag surface is the shared engine surface (cli::engine_flags) —
// the same --topology/--nodes/--radius/--er-prob/--threads/--engine
// flags ddcsim takes — plus --protocol, --rounds, --shards and
// --shard-map. Note that the TopologySpec density defaults (radius =
// max(0.15, 2/√n)) are sized for paper-scale runs; at 10⁵–10⁶ nodes
// always pass an explicit sparse --radius / --er-prob or the graph
// itself dwarfs memory.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>

#include <ddc/cli/engine_flags.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/workload/scenarios.hpp>

namespace {

using ddc::linalg::Vector;
using ddc::shard::ShardId;

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
  /// Exchange counters summed over the shards.
  ddc::shard::ShardEngineStats exchange;
};

void add_exchange(ddc::shard::ShardEngineStats& sum,
                  const ddc::shard::ShardEngineStats& shard) {
  sum.batch_frames_sent += shard.batch_frames_sent;
  sum.batch_records_sent += shard.batch_records_sent;
  sum.retransmits += shard.retransmits;
  sum.cut_edges += shard.cut_edges;
  sum.boundary_nodes += shard.boundary_nodes;
  sum.polls_during_compute += shard.polls_during_compute;
}

/// Builds a one-shard engine or a ShardCluster, times `rounds` rounds
/// and sums the shards' exchange counters.
template <typename MakeRun>
Measurement measure(std::size_t rounds, MakeRun make_run) {
  using Clock = std::chrono::steady_clock;
  Measurement m;
  const auto t0 = Clock::now();
  auto run = make_run();
  const auto t1 = Clock::now();
  run.run_rounds(rounds);
  const auto t2 = Clock::now();
  m.build_s = std::chrono::duration<double>(t1 - t0).count();
  m.run_s = std::chrono::duration<double>(t2 - t1).count();
  if constexpr (requires { run.engine(ShardId{0}); }) {
    // Every shard replays the whole plan, so any shard knows who is alive.
    m.alive = run.engine(0).alive_count();
    for (ShardId s = 0; s < run.num_shards(); ++s) {
      add_exchange(m.exchange, run.engine(s).stats());
    }
  } else {
    m.alive = run.alive_count();
    add_exchange(m.exchange, run.stats());
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  ddc::cli::Flags flags("bench_scale",
                        "round-engine throughput / peak-RSS benchmark, one "
                        "shard or a loopback cluster (one configuration per "
                        "invocation, JSON output)");
  flags.declare("protocol", "gm | centroid", "centroid");
  flags.declare("rounds", "gossip rounds to time", "10");
  flags.declare("shards",
                "shards on one loopback fabric (1 = the one-shard engine; "
                "more needs --engine object)",
                "1");
  flags.declare("shard-map", "contiguous | edgecut node->shard assignment",
                "contiguous");
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
    const std::string protocol = flags.get("protocol");
    if (flags.get_int("rounds") < 1 || flags.get_int("shards") < 1) {
      throw ddc::ConfigError("--rounds and --shards must be ≥ 1");
    }
    const auto rounds = static_cast<std::size_t>(flags.get_int("rounds"));
    const auto shards = static_cast<ShardId>(flags.get_int("shards"));
    const ddc::shard::Partitioner partitioner =
        ddc::shard::parse_partitioner(flags.get("shard-map"));
    // Pool storage (soa) or object storage on one shard: one engine
    // either way, only the factory differs.
    const bool pools = config.use_soa();
    if (shards > 1 && pools) {
      throw ddc::ConfigError(
          "--shards > 1 needs --engine object (pool storage has no row "
          "codec for the shard exchange)");
    }

    // Topology first: grid packing can round the vertex count up, and
    // the engine needs one input per vertex.
    // topology_s times the graph build on its own; build_s is the engine.
    ddc::stats::Rng rng(config.protocol_seed);
    const auto topology_t0 = std::chrono::steady_clock::now();
    ddc::sim::Topology topology = config.build_topology(rng);
    const double topology_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - topology_t0)
                                  .count();
    const std::size_t n = topology.num_nodes();
    const std::size_t edges = topology.num_edges();
    const std::vector<Vector> inputs =
        ddc::workload::two_clusters_inputs(n, rng);

    const auto run = [&](auto make_pools, auto make_objects,
                         auto make_cluster) {
      if (shards > 1) return measure(rounds, make_cluster);
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
          },
          [&] {
            return ddc::shard::make_centroid_shard_cluster(
                std::move(topology), inputs, config, shards, {}, partitioner);
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
          },
          [&] {
            return ddc::shard::make_gm_shard_cluster(std::move(topology),
                                                     inputs, config, shards,
                                                     {}, {}, partitioner);
          });
    } else {
      throw ddc::ConfigError("unknown protocol '" + protocol + "'");
    }
    const std::string engine_name = pools ? "soa" : "object";
    const std::string map_name(ddc::shard::partitioner_name(partitioner));

    std::string name = flags.get("name");
    if (name.empty()) {
      name = protocol + "/" +
             ddc::sim::topology_family_name(config.topology.family) + "/" +
             std::to_string(n);
      if (shards > 1) {
        name += "x" + std::to_string(shards);
        if (partitioner != ddc::shard::Partitioner::contiguous) {
          name += "-" + map_name;
        }
      }
    }

    const std::size_t nproc = ddc::exec::ThreadPool::hardware_threads();
    const std::size_t threads =
        config.parallelism == 0 ? nproc : config.parallelism;
    const auto& x = m.exchange;
    const double frames_per_round = static_cast<double>(x.batch_frames_sent) /
                                    static_cast<double>(rounds);
    const double records_per_frame =
        x.batch_frames_sent > 0
            ? static_cast<double>(x.batch_records_sent) /
                  static_cast<double>(x.batch_frames_sent)
            : 0.0;
    // One record per line; keys are stable for the awk in bench_gate.sh.
    std::printf(
        "{\"name\":\"%s\",\"engine\":\"%s\",\"nodes\":%zu,\"edges\":%zu,"
        "\"nproc\":%zu,\"threads\":%zu,\"shards\":%u,\"shard_map\":\"%s\","
        "\"rounds\":%zu,\"alive\":%zu,\"topology_s\":%.4f,\"build_s\":%.4f,"
        "\"run_s\":%.4f,\"rounds_per_s\":%.4f,\"cut_edges\":%llu,"
        "\"frames_per_round\":%.1f,\"records_per_frame\":%.2f,"
        "\"retransmits\":%llu,"
        "\"boundary_nodes\":%llu,\"polls_during_compute\":%llu,"
        "\"peak_rss_mb\":%.1f}\n",
        name.c_str(), engine_name.c_str(), n, edges, nproc, threads,
        static_cast<unsigned>(shards), map_name.c_str(), rounds, m.alive,
        topology_s, m.build_s, m.run_s, static_cast<double>(rounds) / m.run_s,
        static_cast<unsigned long long>(x.cut_edges), frames_per_round,
        records_per_frame, static_cast<unsigned long long>(x.retransmits),
        static_cast<unsigned long long>(x.boundary_nodes),
        static_cast<unsigned long long>(x.polls_during_compute),
        peak_rss_mb());
    return 0;
  } catch (const ddc::Error& e) {
    std::cerr << "bench_scale: " << e.what() << '\n';
    return 1;
  }
}
