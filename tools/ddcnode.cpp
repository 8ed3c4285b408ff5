// ddcnode — one shard of a networked classification cluster.
//
// A cluster is S ddcnode processes. Each runs one ShardEngine hosting
// its share of the --nodes nodes (the same GM or centroid nodes the
// simulator drives) and exchanges batched cross-shard traffic over UDP:
// one frame per peer shard per round. Every process derives the full
// input set, the topology and the node->shard map from the same flags,
// exactly how a sensor deployment ships one flashed configuration to
// every mote.
// Together the shards replay the round protocol ddcsim runs in-process,
// so a healthy cluster's RESULT matches `ddcsim --summary-line` bit for
// bit. One mote per process is `--nodes S --num-shards S`.
//
// Lifecycle: bind socket -> say hello to every peer shard until each has
// been heard from (at most 5 s) -> run --rounds rounds -> drain -> print
// the first owned node's classification as a RESULT line.
//
//   ddcnode --shard-id 0 --num-shards 4 --nodes 4000
//
// The shared engine flags (--topology/--nodes/--k/--quanta-exp/--seed)
// come from cli::declare_engine_flags and mean what they mean to ddcsim.
// Every process runs the same inputs-then-topology derivation ddcsim
// does, so a cluster and a simulator run on the same seed classify the
// same workload over the same graph. Whether a silent peer shard is gone
// is the engine's verdict alone (--max-exchange-polls); the transport
// keeps no liveness state. scripts/run_cluster.sh launches and checks a
// whole cluster.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include <ddc/cli/engine_flags.hpp>
#include <ddc/net/udp.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>
#include <ddc/workload/scenarios.hpp>

#include "result_line.hpp"

namespace {

using ddc::linalg::Vector;
using namespace std::chrono_literals;
// The start barrier waits on real time, outside any round: a process
// cluster is nondeterministic by design. ddcverify: allow(wall-clock)
using Clock = std::chrono::steady_clock;

/// How long the start barrier waits for every peer shard.
constexpr auto kStartTimeout = 5000ms;
/// Interval between the start barrier's hellos to peers not yet heard.
constexpr auto kHelloInterval = 250ms;
/// After the last round the shard keeps answering its peers for
/// kDrainTicks ticks of kDrainTick each.
constexpr auto kDrainTick = 20ms;
constexpr std::size_t kDrainTicks = 25;
/// Sleep between the engine's unsuccessful exchange polls.
constexpr auto kIdleSleep = 500us;

/// Which engine flag groups ddcnode exposes. Faults stay off — the
/// engine fault model simulates lossy channels, while ddcnode's own
/// --loss-prob injects receive-side datagram drops in a real transport.
constexpr ddc::cli::EngineFlagSet kNodeFlagSet{.topology = true,
                                               .gossip = false,
                                               .faults = false,
                                               .parallelism = false,
                                               .protocol = true,
                                               .backend = false,
                                               .timing = false};

struct Config {
  std::uint16_t base_port;
  std::string host;
  std::string protocol;
  std::string workload;
  std::size_t rounds;
  double loss_prob;
  bool stats_json;
  std::size_t num_shards;
  std::size_t shard_id;
  std::size_t max_exchange_polls;
  ddc::shard::Partitioner shard_map;
  ddc::sim::EngineConfig engine;

  [[nodiscard]] std::size_t nodes() const { return engine.topology.nodes; }
  [[nodiscard]] std::uint64_t seed() const { return engine.protocol_seed; }
};

std::vector<Vector> make_inputs(const Config& config, ddc::stats::Rng& rng) {
  if (config.workload == "clusters") {
    return ddc::workload::two_clusters_inputs(config.nodes(), rng);
  }
  if (config.workload == "fence") {
    return ddc::workload::sample_inputs(ddc::workload::fig2_mixture(),
                                        config.nodes(), rng);
  }
  throw ddc::ConfigError("unknown workload '" + config.workload + "'");
}

/// One endpoint per shard (not per node), shard s listening on
/// base-port + s.
ddc::net::UdpTransport make_shard_transport(const Config& config) {
  std::vector<ddc::net::UdpPeer> peers;
  peers.reserve(config.num_shards);
  for (std::size_t s = 0; s < config.num_shards; ++s) {
    peers.push_back({config.host,
                     static_cast<std::uint16_t>(config.base_port + s)});
  }
  ddc::net::UdpOptions options;
  options.inject_receive_loss = config.loss_prob;
  options.loss_seed =
      ddc::stats::derive_seed(config.seed(), 7000 + config.shard_id);
  return ddc::net::UdpTransport(
      static_cast<ddc::net::PeerId>(config.shard_id), std::move(peers),
      options);
}

/// One-line JSON stats dump (--stats-json): the engine's batch-exchange
/// counters plus per-peer link counters and the engine's verdict on
/// whether each peer shard is alive. Printed to stdout so run_cluster.sh
/// can assert on batching efficiency.
template <typename Engine>
std::string stats_json(const ddc::net::UdpTransport& transport,
                       const Engine& shard, const char* shard_map) {
  const ddc::shard::ShardEngineStats& engine = shard.stats();
  const double records_per_frame =
      engine.batch_frames_sent > 0
          ? static_cast<double>(engine.batch_records_sent) /
                static_cast<double>(engine.batch_frames_sent)
          : 0.0;
  std::ostringstream os;
  os << "{\"mode\":\"shard\",\"id\":" << shard.shard_id()
     << ",\"injected_losses\":" << transport.injected_losses()
     << ",\"shard_map\":\"" << shard_map
     << "\",\"engine\":{\"batch_frames_sent\":" << engine.batch_frames_sent
     << ",\"batch_records_sent\":" << engine.batch_records_sent
     << ",\"batch_frames_received\":" << engine.batch_frames_received
     << ",\"batch_records_received\":" << engine.batch_records_received
     << ",\"acks_received\":" << engine.acks_received
     << ",\"retransmits\":" << engine.retransmits
     << ",\"decode_errors\":" << engine.decode_errors
     << ",\"peer_timeouts\":" << engine.peer_timeouts
     << ",\"unplanned_records\":" << engine.unplanned_records
     << ",\"cut_edges\":" << engine.cut_edges
     << ",\"boundary_nodes\":" << engine.boundary_nodes
     << ",\"polls_during_compute\":" << engine.polls_during_compute
     << ",\"records_per_frame\":" << records_per_frame << "}";
  os << ",\"peers\":[";
  for (ddc::net::PeerId p = 0; p < transport.num_peers(); ++p) {
    const auto& s = transport.stats(p);
    if (p > 0) os << ',';
    os << "{\"peer\":" << p << ",\"frames_sent\":" << s.frames_sent
       << ",\"bytes_sent\":" << s.bytes_sent
       << ",\"frames_received\":" << s.frames_received
       << ",\"bytes_received\":" << s.bytes_received
       << ",\"send_failures\":" << s.send_failures << ",\"alive\":"
       << (shard.peer_shard_alive(p) ? "true" : "false") << '}';
  }
  os << "]}";
  return os.str();
}

/// Startup barrier: say hello to every peer shard not yet heard from,
/// once per kHelloInterval, until all have been heard (a hello's ack, a
/// hello or any other frame) or kStartTimeout passes, so slow-starting
/// processes don't stall the first exchange. Proceeds after the timeout
/// regardless — a shard that is down from the start must not wedge the
/// cluster. Discarding data frames here is safe: every batch is
/// retransmitted until acked, so nothing a fast-starting peer sent
/// during our barrier is lost.
void await_shard_peers(ddc::net::UdpTransport& transport) {
  const auto deadline = Clock::now() + kStartTimeout;
  auto next_hello = Clock::now();
  while (Clock::now() < deadline) {
    (void)transport.receive();
    const bool hello = Clock::now() >= next_hello;
    if (hello) next_hello += kHelloInterval;
    bool all_heard = true;
    for (ddc::net::PeerId p = 0; p < transport.num_peers(); ++p) {
      if (p == transport.self() || transport.stats(p).frames_received > 0) {
        continue;
      }
      all_heard = false;
      if (hello) transport.probe(p);
    }
    if (all_heard) return;
    std::this_thread::sleep_for(5ms);
  }
  std::cerr << "ddcnode shard " << transport.self()
            << ": start barrier timed out; proceeding\n";
}

template <typename Engine, typename MeanFn>
int drive_shard(const Config& config, ddc::net::UdpTransport& transport,
                Engine& engine, MeanFn mean_of) {
  await_shard_peers(transport);
  engine.run_rounds(config.rounds);
  // Drain: a lagging or restarted peer shard may still be replaying
  // rounds and needs this shard's re-acks (service() answers them
  // without opening a new round).
  for (std::size_t t = 0; t < kDrainTicks; ++t) {
    engine.service();
    std::this_thread::sleep_for(kDrainTick);
  }
  if (config.stats_json) {
    std::cout << stats_json(
                     transport, engine,
                     ddc::shard::partitioner_name(config.shard_map).data())
              << '\n';
  }
  // Every shard reports its first owned node; shard 0's line is global
  // node 0's classification, directly comparable with ddcsim's.
  std::cout << ddc::tools::result_line(
                   engine.nodes().front().classification(), mean_of)
            << '\n'
            << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ddc::cli::Flags flags("ddcnode",
                        "one shard of a networked distributed-classification "
                        "cluster (one process per shard, batched gossip "
                        "over UDP)");
  flags.declare("base-port", "shard s listens on base-port + s", "9800");
  flags.declare("host", "IPv4 address every shard binds and dials",
                "127.0.0.1");
  flags.declare("protocol", "gm | centroid", "gm");
  flags.declare("workload", "clusters | fence", "clusters");
  flags.declare("rounds", "gossip rounds to run", "60");
  flags.declare("loss-prob",
                "probability of dropping each incoming datagram (loss "
                "injection for tests; the batch protocol retransmits "
                "through it)",
                "0");
  flags.declare("num-shards", "number of shard processes (required, >= 1)",
                "0");
  flags.declare("shard-id", "this process's shard index", "0");
  flags.declare("max-exchange-polls",
                "polls without traffic before a peer shard is declared "
                "dead (0 waits forever)",
                "4000");
  flags.declare("shard-map", "contiguous | edgecut node->shard assignment",
                "contiguous");
  flags.declare_bool("stats-json",
                     "print one line of JSON link/batch statistics to "
                     "stdout before the RESULT line");
  ddc::cli::declare_engine_flags(flags, {}, kNodeFlagSet);

  try {
    if (!flags.parse(argc, argv)) {
      std::cout << flags.help_text();
      return 0;
    }
    // Range checks before the casts below: a negative --rounds would
    // wrap to about 2^64 rounds, and a port past 65535 to a low one.
    const long long shards = flags.get_int("num-shards");
    if (shards < 1) {
      throw ddc::ConfigError("--num-shards must be >= 1");
    }
    if (flags.get_int("rounds") < 0) {
      throw ddc::ConfigError("--rounds must be >= 0");
    }
    const long long base_port = flags.get_int("base-port");
    const long long last_base_port = 65535 - (shards - 1);
    if (base_port < 1 || base_port > last_base_port) {
      throw ddc::ConfigError("--base-port must be in [1, " +
                             std::to_string(last_base_port) +
                             "] (shard s listens on base-port + s)");
    }
    const Config config{
        static_cast<std::uint16_t>(base_port),
        flags.get("host"),
        flags.get("protocol"),
        flags.get("workload"),
        static_cast<std::size_t>(flags.get_int("rounds")),
        flags.get_double("loss-prob"),
        flags.get_bool("stats-json"),
        static_cast<std::size_t>(flags.get_int("num-shards")),
        static_cast<std::size_t>(flags.get_int("shard-id")),
        static_cast<std::size_t>(flags.get_int("max-exchange-polls")),
        ddc::shard::parse_partitioner(flags.get("shard-map")),
        ddc::cli::parse_engine_config(flags, {}, kNodeFlagSet),
    };
    if (config.nodes() < config.num_shards) {
      throw ddc::ConfigError("--nodes must be >= --num-shards");
    }
    if (config.shard_id >= config.num_shards) {
      throw ddc::ConfigError("--shard-id must be < --num-shards");
    }
    if (config.loss_prob < 0.0 || config.loss_prob > 1.0) {
      throw ddc::ConfigError("--loss-prob must be in [0, 1]");
    }
    // Same derivation sequence as ddcsim: inputs first, then the
    // topology, from one RNG seeded with --seed. Every process (and a
    // simulator run on the same flags) lands on the identical graph.
    ddc::stats::Rng rng(config.seed());
    const std::vector<Vector> inputs = make_inputs(config, rng);
    ddc::sim::Topology topology = config.engine.build_topology(rng);

    ddc::net::UdpTransport transport = make_shard_transport(config);
    ddc::shard::ShardEngineOptions pacing;
    pacing.max_exchange_polls = config.max_exchange_polls;
    pacing.partitioner = config.shard_map;
    pacing.idle = [] { std::this_thread::sleep_for(kIdleSleep); };
    const auto shard_id = static_cast<ddc::shard::ShardId>(config.shard_id);
    const auto num_shards =
        static_cast<ddc::shard::ShardId>(config.num_shards);
    if (config.protocol == "gm") {
      auto engine = ddc::shard::make_gm_shard_engine(
          std::move(topology), inputs, config.engine, shard_id, num_shards,
          &transport, pacing);
      return drive_shard(config, transport, engine,
                         [](const ddc::stats::Gaussian& g) {
                           return g.mean();
                         });
    }
    if (config.protocol == "centroid") {
      auto engine = ddc::shard::make_centroid_shard_engine(
          std::move(topology), inputs, config.engine, shard_id, num_shards,
          &transport, pacing);
      return drive_shard(config, transport, engine,
                         [](const Vector& v) { return v; });
    }
    throw ddc::ConfigError("unknown protocol '" + config.protocol + "'");
  } catch (const ddc::Error& e) {
    std::cerr << "ddcnode: " << e.what() << '\n';
    return 1;
  }
}
