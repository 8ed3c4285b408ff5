// ddcsim — command-line driver for the distributed classification
// simulator.
//
// Examples:
//   ddcsim                                         # defaults: GM on clusters
//   ddcsim --protocol centroid --topology ring --nodes 64 --rounds 500
//   ddcsim --workload outliers --delta 10 --crash-prob 0.05
//   ddcsim --workload fence --k 7 --nodes 500 --topology geometric
//   ddcsim --protocol pushsum --workload loads --csv
//   ddcsim --nodes 100000 --topology ring --rounds 20
//   ddcsim --trace events.csv                      # per-event trace CSV
//
// Every run is the one-shard shard::ShardEngine. gm and centroid use its
// pool storage (the SoA engine) by default, traced or not; push-sum runs
// and --engine object use object storage (the object engine), which pool
// storage matches bit for bit, event traces included.
//
// The engine flags (--topology/--nodes/--pattern/--threads/--engine/...)
// are the shared cli::declare_engine_flags surface; only the
// tool-specific flags (--protocol, --workload, --rounds, output shape)
// are declared here.
#include <fstream>
#include <iostream>
#include <sstream>

#include <ddc/cli/engine_flags.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/io/table.hpp>
#include <ddc/metrics/streaming.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/trace.hpp>
#include <ddc/summaries/centroid.hpp>
#include <ddc/summaries/gaussian_summary.hpp>
#include <ddc/workload/scenarios.hpp>

#include "result_line.hpp"

namespace {

using ddc::linalg::Vector;

/// The flags that are ddcsim's own, on top of the shared engine surface.
struct ToolConfig {
  std::string protocol;
  std::string workload;
  std::size_t rounds;
  std::size_t report_every;
  double delta;
  bool csv;
  bool summary_line;
  bool timing;
  std::string trace_path;
};

std::vector<Vector> make_inputs(const ToolConfig& tool, std::size_t nodes,
                                ddc::stats::Rng& rng) {
  if (tool.workload == "clusters") {
    // Shared with ddcnode so networked and simulated runs on the same
    // seed classify identical inputs.
    return ddc::workload::two_clusters_inputs(nodes, rng);
  }
  if (tool.workload == "fence") {
    return ddc::workload::sample_inputs(ddc::workload::fig2_mixture(), nodes,
                                        rng);
  }
  if (tool.workload == "outliers") {
    const std::size_t n_out = std::max<std::size_t>(1, nodes / 20);
    return ddc::workload::outlier_scenario(tool.delta, rng, nodes - n_out,
                                           n_out)
        .inputs;
  }
  if (tool.workload == "loads") {
    return ddc::workload::load_balancing_inputs(nodes, rng);
  }
  throw ddc::ConfigError("unknown workload '" + tool.workload + "'");
}

void emit(const ToolConfig& tool, const ddc::io::Table& table) {
  if (tool.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// Writes the recorded trace (if requested) and reports where it went.
void flush_trace(const ToolConfig& tool, const ddc::sim::TraceRecorder& trace) {
  if (tool.trace_path.empty()) return;
  std::ofstream out(tool.trace_path);
  if (!out) {
    throw ddc::ConfigError("cannot write trace file '" + tool.trace_path +
                           "'");
  }
  trace.write_csv(out);
  std::cout << "\ntrace: " << trace.events().size() << " events -> "
            << tool.trace_path << '\n';
}

std::string describe(const Vector& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string describe(const ddc::stats::Gaussian& g) {
  std::ostringstream os;
  os << "N(" << g.mean() << ", diag≈[";
  for (std::size_t i = 0; i < g.dim(); ++i) {
    if (i > 0) os << ", ";
    os << g.cov()(i, i);
  }
  os << "])";
  return os.str();
}

/// A summary's position, for the RESULT line.
const Vector& mean_of(const Vector& v) { return v; }
const Vector& mean_of(const ddc::stats::Gaussian& g) { return g.mean(); }

/// Prints node 0's classification table and the optional RESULT line.
template <typename Summary>
void report_classification(const ToolConfig& tool,
                           const ddc::core::Classification<Summary>& c) {
  std::cout << "\nnode 0's classification after " << tool.rounds
            << " rounds:\n";
  ddc::io::Table result({"collection", "share", "summary"});
  for (std::size_t j = 0; j < c.size(); ++j) {
    result.add_row({static_cast<long long>(j), c.relative_weight(j),
                    describe(c[j].summary)});
  }
  emit(tool, result);
  if (tool.summary_line) {
    // Machine-readable mirror of node 0's classification, comparable
    // against a ddcnode cluster's RESULT lines (scripts/run_cluster.sh).
    std::cout << ddc::tools::result_line(
                     c, [](const Summary& s) { return mean_of(s); })
              << '\n';
  }
}

void report_timing(const ddc::sim::RoundPhaseTimings& t, double partition_s,
                   double em_s) {
  std::cout << "\nTIMING plan_s=" << t.plan_seconds
            << " prepare_s=" << t.prepare_seconds
            << " deliver_s=" << t.deliver_seconds
            << " absorb_s=" << t.absorb_seconds
            << " partition_s=" << partition_s << " em_s=" << em_s << '\n';
}

/// The gm/centroid run on either storage: progress table, node 0's
/// classification and the TIMING line, all through the read-outs both
/// storages share (no per-node vector is ever materialized).
template <typename Policy, typename Engine>
int run_classifier(const ToolConfig& tool, Engine engine) {
  ddc::sim::TraceRecorder trace;
  if (!tool.trace_path.empty()) engine.set_trace(&trace);

  ddc::io::Table progress({"round", "alive", "disagreement"}, 6);
  for (std::size_t r = 0; r < tool.rounds; ++r) {
    engine.run_round();
    if ((r + 1) % tool.report_every == 0 || r + 1 == tool.rounds) {
      progress.add_row(
          {static_cast<long long>(r + 1),
           static_cast<long long>(engine.alive_count()),
           ddc::metrics::streaming_max_disagreement<Policy>(engine)});
    }
  }
  emit(tool, progress);

  report_classification(tool, engine.classification_of(0));
  if (tool.timing) {
    // Per-phase wall-clock from the engine (plan/prepare/deliver/absorb)
    // and its storage (partition, and em: 0 without an EM stage).
    // partition_s and em_s are sums over nodes, so with --threads > 1
    // they can exceed the enclosing absorb_s wall-clock.
    report_timing(engine.timings(), engine.partition_seconds(),
                  engine.em_seconds());
  }
  flush_trace(tool, trace);
  return 0;
}

int run_push_sum(const ToolConfig& tool,
                 ddc::shard::ShardEngine<ddc::gossip::PushSumNode> runner,
                 const std::vector<Vector>& inputs) {
  ddc::sim::TraceRecorder trace;
  if (!tool.trace_path.empty()) runner.set_trace(&trace);

  // True average for reference.
  Vector truth(inputs.front().dim());
  for (const auto& v : inputs) truth += v / static_cast<double>(inputs.size());

  ddc::io::Table progress({"round", "alive", "max estimate error"}, 6);
  for (std::size_t r = 0; r < tool.rounds; ++r) {
    runner.run_round();
    if ((r + 1) % tool.report_every == 0 || r + 1 == tool.rounds) {
      double worst = 0.0;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (!runner.alive(i)) continue;
        worst = std::max(
            worst, ddc::linalg::distance2(runner.nodes()[i].estimate(), truth));
      }
      progress.add_row({static_cast<long long>(r + 1),
                        static_cast<long long>(runner.alive_count()), worst});
    }
  }
  emit(tool, progress);
  std::ostringstream estimate;
  estimate << runner.nodes()[0].estimate();
  std::cout << "\nnode 0's average estimate: " << estimate.str() << '\n';
  flush_trace(tool, trace);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ddc::cli::Flags flags("ddcsim",
                        "gossip-based distributed data classification "
                        "simulator (Eyal, Keidar & Rom, PODC 2010)");
  flags.declare("protocol", "gm | centroid | pushsum", "gm");
  flags.declare("workload", "clusters | fence | outliers | loads", "clusters");
  flags.declare("rounds", "gossip rounds to run", "100");
  flags.declare("report-every", "progress row interval", "10");
  flags.declare("delta", "outlier distance (outliers workload)", "10");
  flags.declare("trace", "write an event trace CSV to this path", "");
  flags.declare_bool("csv", "emit CSV instead of aligned tables");
  flags.declare_bool("summary-line",
                     "also print node 0's final classification as a "
                     "machine-readable RESULT line (gm/centroid)");
  ddc::cli::declare_engine_flags(flags);

  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help_text();
      return 0;
    }
    const ddc::sim::EngineConfig config = ddc::cli::parse_engine_config(flags);
    if (flags.get_int("rounds") < 0 || flags.get_int("report-every") < 1) {
      throw ddc::ConfigError("--rounds must be ≥ 0 and --report-every ≥ 1");
    }
    const ToolConfig tool{
        flags.get("protocol"),
        flags.get("workload"),
        static_cast<std::size_t>(flags.get_int("rounds")),
        static_cast<std::size_t>(flags.get_int("report-every")),
        flags.get_double("delta"),
        flags.get_bool("csv"),
        flags.get_bool("summary-line"),
        ddc::cli::timing_requested(flags),
        flags.get("trace"),
    };

    // Workload inputs and the (possibly random) topology share one RNG
    // seeded with --seed, in this order — unchanged since the first
    // ddcsim so existing seeds reproduce bit-identically.
    ddc::stats::Rng rng(config.protocol_seed);
    const std::vector<Vector> inputs =
        make_inputs(tool, config.topology.nodes, rng);
    ddc::sim::Topology topology = config.build_topology(rng);
    const bool pools = config.use_soa();

    if (tool.protocol == "gm") {
      using Policy = ddc::summaries::GaussianPolicy;
      return pools ? run_classifier<Policy>(
                         tool, ddc::gossip::make_gm_scale_engine(
                                   std::move(topology), inputs, config))
                   : run_classifier<Policy>(
                         tool, ddc::shard::make_gm_round_runner(
                                   std::move(topology), inputs, config));
    }
    if (tool.protocol == "centroid") {
      using Policy = ddc::summaries::CentroidPolicy;
      return pools ? run_classifier<Policy>(
                         tool, ddc::gossip::make_centroid_scale_engine(
                                   std::move(topology), inputs, config))
                   : run_classifier<Policy>(
                         tool, ddc::shard::make_centroid_round_runner(
                                   std::move(topology), inputs, config));
    }
    if (tool.protocol == "pushsum") {
      return run_push_sum(tool,
                          ddc::shard::make_push_sum_round_runner(
                              std::move(topology), inputs, config),
                          inputs);
    }
    throw ddc::ConfigError("unknown protocol '" + tool.protocol + "'");
  } catch (const ddc::Error& e) {
    std::cerr << "ddcsim: " << e.what() << '\n';
    return 1;
  }
}
