// ddc_perfbench — end-to-end and per-layer benchmark of the round engines
// (SoaRoundEngine, ShardCluster) on three fixed workloads.
//
//   ddc_perfbench --workload centroid-er-100k-t4 --seed 1 --seconds 12
//   ddc_perfbench --workload cluster-er-20k-s4-loss --trace 1 --spans-out s.jsonl
//
// An EPISODE builds the workload from scratch (topology, inputs, engine or
// cluster) and gossips from round 0 to the first round at which the
// maximum disagreement against node 0 is at most ε, found by a streaming
// probe after every round; the probe is never inside a round's time.
//
// How many rounds that takes depends strongly on the seed (39 to 54 on
// the centroid workload over seeds 1-10), so one run covers
// kSubSeeds sub-seeds derived from --seed: a CYCLE is one episode per
// sub-seed, and a run repeats whole cycles until --seconds have passed.
// rounds_to_eps and time_to_eps_s are medians over the sub-seeds,
// rounds_per_s the median of the per-episode rates, round_ms_p50 the
// median of all rounds; set-up is timed kSetupsPerEpisode times per
// episode and reported as a median.
//
// The loop is closed: one driver thread starts round r+1 when round r
// returns. Every round is checked (one check = one round): total weight
// quanta equal n × quanta_per_unit (Lemma 1) and no node has died; on
// the cluster the exchange's decode-error, peer-timeout and send-failure
// counters stay 0. An episode whose digest, rounds-to-ε or wire byte
// count differs from the expected value (or from an earlier episode of
// the same sub-seed) counts all its rounds as failed.
//
// --trace 1 uses the first sub-seed only: one probe episode, then
// untraced and traced replays of the same rounds in ABBA order, then the first
// rounds again at one thread. The per-layer metrics come from spans
// recorded around every public call into a layer; spans stay in memory
// and are written to --spans-out at exit.
//
// The last line of stdout is one JSON object; run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <ddc/gossip/runners.hpp>
#include <ddc/gossip/scale.hpp>
#include <ddc/linalg/simd.hpp>
#include <ddc/metrics/classification_metrics.hpp>
#include <ddc/metrics/streaming.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/shard/shard_map.hpp>
#include <ddc/sim/engine_config.hpp>
#include <ddc/wire/serialize.hpp>
#include <ddc/workload/scenarios.hpp>

namespace {

namespace sim = ddc::sim;
namespace shard = ddc::shard;
using ddc::linalg::Vector;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Why each one exists is recorded in BENCHMARK.json and
// perfbench/README.md; all three are protocol-lossless and crash-free, so
// conservation is exact and the final state is a pure function of the
// seed (link loss on the cluster is absorbed by retransmission).
// ---------------------------------------------------------------------------

enum class Kind { centroid_soa, gm_soa, centroid_cluster };

struct Workload {
  std::string_view name;
  Kind kind;
  std::size_t nodes;
  double edge_probability;  // Erdős–Rényi p; mean degree ≈ 16 on all three
  sim::GossipPattern pattern;
  std::size_t threads;
  shard::ShardId shards;
  double link_loss;  // loopback frame loss (cluster only)
  double eps;        // convergence threshold on max disagreement vs node 0
  /// round_ms_tail's percentile: the highest with at least ten of one
  /// cycle's rounds beyond it (GM converges in ~20 rounds, so 4 × 20 = 80
  /// samples support p85; the others ≥ 4 × 33 support p90).
  double tail_percentile;
};

constexpr std::array<Workload, 3> kWorkloads{{
    {"centroid-er-100k-t4", Kind::centroid_soa, 100'000, 0.00016,
     sim::GossipPattern::push, 4, 1, 0.0, 0.05, 90.0},
    {"gm-er-50k-pp-t4", Kind::gm_soa, 50'000, 0.00032,
     sim::GossipPattern::push_pull, 4, 1, 0.0, 0.05, 85.0},
    {"cluster-er-20k-s4-loss", Kind::centroid_cluster, 20'000, 0.0008,
     sim::GossipPattern::push, 1, 4, 0.02, 0.05, 90.0},
}};

constexpr std::size_t kSubSeeds = 4;
constexpr std::size_t kSetupsPerEpisode = 3;
/// An episode that has not reached ε by this round fails.
constexpr std::size_t kMaxRounds = 400;
/// Rounds re-run at one thread for exec.speedup_vs_1t (trace mode).
constexpr std::size_t kSpeedupRounds = 10;

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Current resident set in MiB.
double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double sum(const std::vector<double>& values) {
  double acc = 0.0;
  for (const double v : values) acc += v;
  return acc;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, ',');) items.push_back(item);
  return items;
}

/// FNV-1a 64-bit over every node's wire-encoded classification in node
/// order — the digest the equivalence suites use.
class Digest {
 public:
  template <typename Classification>
  void absorb(const Classification& classification) {
    for (const std::byte b : ddc::wire::encode_classification(classification)) {
      hash_ ^= static_cast<std::uint64_t>(b);
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Tracing: spans around each public call into a layer, kept in memory.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    const char* episode;
    std::size_t round;
    std::ptrdiff_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  const char* episode = "";
  std::size_t round = 0;

  std::size_t open(const char* name) {
    const std::ptrdiff_t parent =
        stack_.empty() ? -1 : static_cast<std::ptrdiff_t>(stack_.back());
    spans_.push_back({name, episode, round, parent, 0, 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id, const char* name, Clock::time_point start,
             Clock::time_point end) {
    spans_[id].name = name;
    spans_[id].start_ns = ns(start);
    spans_[id].end_ns = ns(end);
    stack_.pop_back();
  }

  /// Summed duration in seconds of spans named `name` in `episode_name`.
  [[nodiscard]] double total(std::string_view name,
                             std::string_view episode_name) const {
    std::int64_t acc = 0;
    for (const Span& s : spans_) {
      if (name == s.name && episode_name == s.episode) {
        acc += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(acc) * 1e-9;
  }

  /// Writes one JSON object per span (JSON Lines).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
          << s.name << "\",\"episode\":\"" << s.episode
          << "\",\"round\":" << s.round << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }

 private:
  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Runs `fn` and returns its wall seconds, recording a span named `name`
/// when `tracer` is set. When `fn` returns a name, the span takes it (a
/// poll learns only from its result whether it finished the round).
template <typename Fn>
double timed(Tracer* tracer, const char* name, Fn&& fn) {
  const std::size_t id = tracer != nullptr ? tracer->open(name) : 0;
  const auto start = Clock::now();
  if constexpr (std::is_same_v<decltype(fn()), const char*>) {
    name = fn();
  } else {
    fn();
  }
  const auto end = Clock::now();
  if (tracer != nullptr) tracer->close(id, name, start, end);
  return seconds_between(start, end);
}

// ---------------------------------------------------------------------------
// Engine adapters: one build + one round + the read-only probes, over the
// public API of sim/gossip (SoA engine) and shard/net (cluster).
// ---------------------------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double topology_s = 0.0;
  double inputs_s = 0.0;
  double build_s = 0.0;  // engine or cluster construction
  double map_s = 0.0;    // standalone ShardMap::make (traced cluster only)
};

/// Cumulative layer counters; the difference of two reads is one round's
/// share.
struct Counters {
  double prepare_s = 0.0;
  double absorb_s = 0.0;
  double partition_s = 0.0;
  double em_s = 0.0;
  std::uint64_t link_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t boundary_nodes = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t peer_timeouts = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t advances = 0;

  Counters operator-(const Counters& o) const {
    return {prepare_s - o.prepare_s,
            absorb_s - o.absorb_s,
            partition_s - o.partition_s,
            em_s - o.em_s,
            link_bytes - o.link_bytes,
            frames - o.frames,
            records - o.records,
            retransmits - o.retransmits,
            boundary_nodes - o.boundary_nodes,
            decode_errors - o.decode_errors,
            peer_timeouts - o.peer_timeouts,
            send_failures - o.send_failures,
            advances - o.advances};
  }
  Counters& operator+=(const Counters& o) {
    prepare_s += o.prepare_s;
    absorb_s += o.absorb_s;
    partition_s += o.partition_s;
    em_s += o.em_s;
    link_bytes += o.link_bytes;
    frames += o.frames;
    records += o.records;
    retransmits += o.retransmits;
    boundary_nodes += o.boundary_nodes;
    decode_errors += o.decode_errors;
    peer_timeouts += o.peer_timeouts;
    send_failures += o.send_failures;
    advances += o.advances;
    return *this;
  }
};

/// The workload's topology and inputs, from the seed alone (the same
/// construction order as bench_scale and ddcsim: topology, then inputs,
/// from one stream).
struct Instance {
  sim::Topology topology;
  std::vector<Vector> inputs;
};

Instance make_instance(const sim::EngineConfig& config, SetupTimes& setup,
                       Tracer* tracer) {
  ddc::stats::Rng rng(config.protocol_seed);
  std::optional<sim::Topology> topology;
  setup.topology_s = timed(tracer, "sim.EngineConfig::build_topology",
                           [&] { topology.emplace(config.build_topology(rng)); });
  std::vector<Vector> inputs;
  setup.inputs_s = timed(tracer, "workload.two_clusters_inputs", [&] {
    inputs = ddc::workload::two_clusters_inputs(topology->num_nodes(), rng);
  });
  return {std::move(*topology), std::move(inputs)};
}

struct CentroidSoa {
  using Policy = ddc::summaries::CentroidPolicy;
  static auto make(sim::Topology topology, const std::vector<Vector>& inputs,
                   const sim::EngineConfig& config) {
    return ddc::gossip::make_centroid_scale_engine(std::move(topology), inputs,
                                                   config);
  }
};

struct GmSoa {
  using Policy = ddc::summaries::GaussianPolicy;
  static auto make(sim::Topology topology, const std::vector<Vector>& inputs,
                   const sim::EngineConfig& config) {
    return ddc::gossip::make_gm_scale_engine(std::move(topology), inputs,
                                             config);
  }
};

template <typename Binding>
class SoaRun {
 public:
  using Policy = typename Binding::Policy;
  using Engine = decltype(Binding::make(std::declval<sim::Topology>(),
                                        std::declval<std::vector<Vector>>(),
                                        std::declval<sim::EngineConfig>()));

  SoaRun(const Workload& workload, const sim::EngineConfig& config,
         SetupTimes& setup, Tracer* tracer)
      : expected_quanta_(static_cast<std::int64_t>(workload.nodes) *
                         config.quanta_per_unit) {
    Instance instance = make_instance(config, setup, tracer);
    setup.build_s = timed(tracer, "gossip.make_scale_engine", [&] {
      engine_ = std::make_unique<Engine>(
          Binding::make(std::move(instance.topology), instance.inputs, config));
    });
  }

  void round(Tracer* /*tracer*/) { engine_->run_round(); }

  [[nodiscard]] std::size_t nodes() const { return engine_->num_nodes(); }
  [[nodiscard]] std::size_t edges() const {
    return engine_->topology().num_edges();
  }
  [[nodiscard]] std::size_t alive() const { return engine_->alive_count(); }
  [[nodiscard]] std::int64_t expected_quanta() const { return expected_quanta_; }
  [[nodiscard]] std::int64_t total_quanta() const {
    return engine_->total_quanta();
  }

  [[nodiscard]] double disagreement() const {
    return ddc::metrics::streaming_max_disagreement<Policy>(*engine_);
  }
  [[nodiscard]] double mean_collections() const {
    return ddc::metrics::streaming_mean_collections(*engine_);
  }

  [[nodiscard]] std::string digest() const {
    Digest digest;
    engine_->for_each_classification(
        [&](std::size_t, const auto& c) { digest.absorb(c); });
    return digest.hex();
  }

  [[nodiscard]] Counters counters() const {
    Counters c;
    c.prepare_s = engine_->timings().prepare_seconds;
    c.absorb_s = engine_->timings().absorb_seconds;
    c.partition_s = engine_->partition_seconds();
    c.em_s = engine_->em_seconds();
    return c;
  }

 private:
  std::int64_t expected_quanta_;
  std::unique_ptr<Engine> engine_;
};

class ClusterRun {
 public:
  using Policy = ddc::summaries::CentroidPolicy;
  using Cluster = shard::CentroidShardCluster;

  ClusterRun(const Workload& workload, const sim::EngineConfig& config,
             SetupTimes& setup, Tracer* tracer)
      : expected_quanta_(static_cast<std::int64_t>(workload.nodes) *
                         config.quanta_per_unit) {
    Instance instance = make_instance(config, setup, tracer);
    if (tracer != nullptr) {
      // The cluster builds the same map internally; this standalone call
      // only times that step, so untraced set-up never pays for it.
      setup.map_s = timed(tracer, "shard.ShardMap::make", [&] {
        (void)shard::ShardMap::make(shard::Partitioner::contiguous,
                                    instance.topology, workload.shards);
      });
    }
    ddc::net::LoopbackOptions net_options;
    net_options.seed =
        ddc::stats::derive_seed(config.protocol_seed, 0x6c696e6bULL);
    net_options.loss_probability = workload.link_loss;
    setup.build_s = timed(tracer, "shard.make_centroid_shard_cluster", [&] {
      // Direct-initialised from the factory's prvalue: ShardCluster is
      // not movable.
      cluster_.reset(new Cluster(shard::make_centroid_shard_cluster(
          std::move(instance.topology), instance.inputs, config,
          workload.shards, net_options)));
    });
  }

  /// Untraced: ShardCluster::run_round. Traced: the same public calls in
  /// the same order, each inside its own span.
  void round(Tracer* tracer) {
    if (tracer == nullptr) {
      cluster_->run_round();
      return;
    }
    const std::size_t shards = cluster_->num_shards();
    for (std::size_t s = 0; s < shards; ++s) {
      timed(tracer, "shard.begin_round",
            [&] { cluster_->engine(s).begin_round(); });
    }
    std::vector<bool> done(shards, false);
    std::size_t remaining = shards;
    while (remaining > 0) {
      timed(tracer, "net.advance", [&] { cluster_->network().advance(); });
      for (std::size_t s = 0; s < shards; ++s) {
        if (done[s]) {
          timed(tracer, "shard.service", [&] { cluster_->engine(s).service(); });
          continue;
        }
        timed(tracer, "shard.try_complete_round", [&]() -> const char* {
          if (!cluster_->engine(s).try_complete_round()) {
            return "shard.try_complete_round";
          }
          done[s] = true;
          --remaining;
          return "shard.finish_round";
        });
      }
    }
  }

  [[nodiscard]] std::size_t nodes() const { return cluster_->map().num_nodes(); }
  [[nodiscard]] std::size_t edges() const {
    return cluster_->engine(0).topology().num_edges();
  }
  [[nodiscard]] std::size_t alive() const {
    return cluster_->engine(0).alive_count();
  }
  [[nodiscard]] std::int64_t expected_quanta() const { return expected_quanta_; }
  [[nodiscard]] std::int64_t total_quanta() const {
    std::int64_t acc = 0;
    for (sim::NodeId i = 0; i < nodes(); ++i) {
      for (const auto& c : cluster_->node(i).classification()) {
        acc += c.weight.quanta();
      }
    }
    return acc;
  }

  [[nodiscard]] double disagreement() const {
    const auto& reference = cluster_->node(0).classification();
    double worst = 0.0;
    for (sim::NodeId i = 1; i < nodes(); ++i) {
      worst = std::max(worst, ddc::metrics::classification_distance<Policy>(
                                  reference, cluster_->node(i).classification()));
    }
    return worst;
  }
  [[nodiscard]] double mean_collections() const {
    std::uint64_t total = 0;
    for (sim::NodeId i = 0; i < nodes(); ++i) {
      total += cluster_->node(i).classification().size();
    }
    return static_cast<double>(total) / static_cast<double>(nodes());
  }

  [[nodiscard]] std::string digest() const {
    Digest digest;
    for (sim::NodeId i = 0; i < nodes(); ++i) {
      digest.absorb(cluster_->node(i).classification());
    }
    return digest.hex();
  }

  [[nodiscard]] Counters counters() const {
    Counters c;
    for (shard::ShardId s = 0; s < cluster_->num_shards(); ++s) {
      const shard::ShardEngineStats& stats = cluster_->engine(s).stats();
      c.frames += stats.batch_frames_sent;
      c.records += stats.batch_records_sent;
      c.retransmits += stats.retransmits;
      c.boundary_nodes += stats.boundary_nodes;
      c.decode_errors += stats.decode_errors;
      c.peer_timeouts += stats.peer_timeouts;
      auto& endpoint = cluster_->network().endpoint(s);
      for (shard::ShardId p = 0; p < cluster_->num_shards(); ++p) {
        c.link_bytes += endpoint.stats(p).bytes_sent;
        c.send_failures += endpoint.stats(p).send_failures;
      }
      for (const auto& node : cluster_->engine(s).nodes()) {
        c.partition_s += node.classifier().stats().partition_seconds;
      }
    }
    c.advances = cluster_->network().tick();
    return c;
  }

 private:
  std::int64_t expected_quanta_;
  std::unique_ptr<Cluster> cluster_;
};

// ---------------------------------------------------------------------------
// Episodes.
// ---------------------------------------------------------------------------

struct Episode {
  const char* label = "";
  std::size_t sub = 0;  // sub-seed index
  std::vector<SetupTimes> setups;
  double rss_after_setup_mb = 0.0;
  std::vector<double> round_s;
  std::vector<double> round_cpu_s;
  std::vector<Counters> round_counters;  // per-round deltas (traced only)
  std::vector<double> probe_s;
  std::vector<double> mean_collections;
  std::size_t rounds = 0;
  std::size_t failed = 0;
  bool converged = false;
  std::string digest;
  std::uint64_t wire_bytes = 0;
  std::vector<std::string> failures;
  std::size_t nodes = 0;
  std::size_t edges = 0;
};

/// Builds the workload (timing kSetupsPerEpisode builds, keeping the
/// last) and runs one episode: until disagreement ≤ ε when `rounds` is 0,
/// else exactly `rounds` rounds with no probe.
template <typename Run>
Episode run_episode(const Workload& workload, const sim::EngineConfig& config,
                    const char* label, std::size_t sub, std::size_t rounds,
                    Tracer* tracer) {
  const bool probe = rounds == 0;
  Episode ep;
  ep.label = label;
  ep.sub = sub;
  if (tracer != nullptr) {
    tracer->episode = label;
    tracer->round = 0;
  }
  std::unique_ptr<Run> run;
  for (std::size_t k = 0; k < kSetupsPerEpisode; ++k) {
    run.reset();
    SetupTimes setup;
    const auto start = Clock::now();
    run = std::make_unique<Run>(workload, config, setup, tracer);
    setup.total_s = seconds_between(start, Clock::now());
    ep.setups.push_back(setup);
  }
  ep.rss_after_setup_mb = current_rss_mb();
  ep.nodes = run->nodes();
  ep.edges = run->edges();

  auto fail = [&ep](std::size_t r, const std::string& reason) {
    if (ep.failures.size() < 3) {
      ep.failures.push_back("round " + std::to_string(r) + ": " + reason);
    }
  };

  const bool cluster = workload.kind == Kind::centroid_cluster;
  const std::size_t limit = probe ? kMaxRounds : rounds;
  const Counters start_counters = run->counters();
  Counters before = start_counters;
  for (std::size_t r = 0; r < limit; ++r) {
    if (tracer != nullptr) tracer->round = r;
    const double cpu0 = process_cpu_seconds();
    ep.round_s.push_back(timed(tracer, "round", [&] { run->round(tracer); }));
    ep.round_cpu_s.push_back(process_cpu_seconds() - cpu0);
    ++ep.rounds;

    // Checks, outside the round's time.
    bool ok = true;
    if (run->total_quanta() != run->expected_quanta()) {
      ok = false;
      fail(r, "total quanta " + std::to_string(run->total_quanta()) +
                  " != " + std::to_string(run->expected_quanta()));
    }
    if (run->alive() != run->nodes()) {
      ok = false;
      fail(r, std::to_string(run->nodes() - run->alive()) + " nodes died");
    }
    if (tracer != nullptr || cluster) {
      const Counters now = run->counters();
      const Counters delta = now - before;
      before = now;
      if (delta.decode_errors + delta.peer_timeouts + delta.send_failures > 0) {
        ok = false;
        fail(r, "exchange errors");
      }
      if (tracer != nullptr) ep.round_counters.push_back(delta);
    }
    if (!ok) ++ep.failed;

    if (probe) {
      double disagreement = 0.0;
      ep.probe_s.push_back(timed(tracer, "metrics.streaming_max_disagreement",
                                 [&] { disagreement = run->disagreement(); }));
      ep.mean_collections.push_back(run->mean_collections());
      if (disagreement <= workload.eps) {
        ep.converged = true;
        break;
      }
    }
  }
  if (probe && !ep.converged) {
    fail(kMaxRounds, "disagreement still above eps");
    ep.failed = ep.rounds;
  }
  if (cluster) ep.wire_bytes = (run->counters() - start_counters).link_bytes;
  ep.digest = run->digest();
  return ep;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    return raw(key, buf);
  }
  JsonObject& integer(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, quoted(value));
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T, typename Fn>
std::string json_list(const std::vector<T>& items, Fn&& to_json) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + to_json(items[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double link_loss = -1.0;  // < 0 = the workload's own
  bool one_cycle = false;   // exactly one cycle, ignoring --seconds
  std::vector<std::string> expect_digest;  // one per sub-seed
  std::vector<std::string> expect_rounds;
  std::vector<std::string> expect_wire_bytes;
  std::string spans_out;
};

/// The engine configuration of sub-seed `seed`.
sim::EngineConfig engine_config(const Workload& workload, std::uint64_t seed,
                                std::size_t threads) {
  sim::EngineConfig config;
  config.topology.family = sim::TopologyFamily::erdos_renyi;
  config.topology.nodes = workload.nodes;
  config.topology.edge_probability = workload.edge_probability;
  config.pattern = workload.pattern;
  config.parallelism = threads;
  config.backend = workload.kind == Kind::centroid_cluster
                       ? sim::EngineBackend::object
                       : sim::EngineBackend::soa;
  // ddcsim's split: protocol stream = seed, environment stream = seed + 1.
  config.protocol_seed = seed;
  config.seed = seed + 1;
  config.validate();
  return config;
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t sub) {
  return ddc::stats::derive_seed(seed, sub);
}

/// Checks every episode against the expected values and against the
/// first episode of its sub-seed; returns (attempted, failed, reasons).
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

Verdict verify(const Options& options, const std::vector<Episode>& episodes,
               bool wire_from_link) {
  Verdict v;
  std::vector<const Episode*> first(kSubSeeds, nullptr);
  for (const Episode& ep : episodes) {
    const std::string_view label = ep.label;
    const bool full = label == "probe" || label == "replay" || label == "traced";
    const Episode*& reference = first[ep.sub];
    std::string mismatch;
    if (full && reference == nullptr) {
      reference = &ep;
      auto expected = [&](const std::vector<std::string>& list) {
        return ep.sub < list.size() ? list[ep.sub] : std::string();
      };
      const std::string digest = expected(options.expect_digest);
      const std::string rounds = expected(options.expect_rounds);
      const std::string wire = expected(options.expect_wire_bytes);
      if (!digest.empty() && ep.digest != digest) {
        mismatch = "digest " + ep.digest + " != expected " + digest;
      } else if (!rounds.empty() && std::to_string(ep.rounds) != rounds) {
        mismatch = "rounds_to_eps " + std::to_string(ep.rounds) +
                   " != expected " + rounds;
      } else if (!wire.empty() && std::to_string(ep.wire_bytes) != wire) {
        mismatch = "wire bytes " + std::to_string(ep.wire_bytes) +
                   " != expected " + wire;
      }
    } else if (full) {
      if (ep.digest != reference->digest) {
        mismatch = "digest differs from the sub-seed's first episode";
      } else if (ep.rounds != reference->rounds) {
        mismatch = "round count differs from the sub-seed's first episode";
      } else if (wire_from_link && ep.wire_bytes != reference->wire_bytes) {
        mismatch = "wire bytes differ from the sub-seed's first episode";
      }
    }
    v.attempted += ep.rounds;
    const std::string where =
        std::string(ep.label) + " sub-seed " + std::to_string(ep.sub) + ": ";
    if (!mismatch.empty()) {
      v.failed += ep.rounds;
      v.failures.push_back(where + mismatch);
    } else {
      v.failed += ep.failed;
    }
    for (const std::string& f : ep.failures) v.failures.push_back(where + f);
  }
  return v;
}

template <typename Run>
int run_workload(const Options& options, Workload workload) {
  const auto start = Clock::now();
  auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  if (options.link_loss >= 0.0) workload.link_loss = options.link_loss;
  const bool cluster = workload.kind == Kind::centroid_cluster;
  const std::size_t threads = workload.threads;
  auto config_of = [&](std::size_t sub, std::size_t t) {
    return engine_config(workload, sub_seed(options.seed, sub), t);
  };

  std::unique_ptr<Tracer> tracer_owner =
      options.trace ? std::make_unique<Tracer>() : nullptr;
  Tracer* tracer = tracer_owner.get();

  std::vector<Episode> episodes;
  if (!options.trace) {
    do {
      for (std::size_t sub = 0; sub < kSubSeeds; ++sub) {
        episodes.push_back(
            run_episode<Run>(workload, config_of(sub, threads), "probe", sub, 0,
                             nullptr));
      }
    } while (!options.one_cycle && elapsed() < options.seconds);
  } else {
    episodes.push_back(
        run_episode<Run>(workload, config_of(0, threads), "probe", 0, 0, nullptr));
    const std::size_t rounds = episodes.front().rounds;
    if (episodes.front().converged) {
      // Untraced and traced replays in ABBA order, so a host that speeds up
      // or slows down during the run favours neither side; the difference
      // between the two is the tracing overhead.
      std::size_t pairs = 0;
      do {
        for (const bool traced : {pairs % 2 == 1, pairs % 2 == 0}) {
          episodes.push_back(run_episode<Run>(
              workload, config_of(0, threads), traced ? "traced" : "replay", 0,
              rounds, traced ? tracer : nullptr));
        }
        ++pairs;
      } while (pairs < 2 || elapsed() < options.seconds);
      if (threads > 1) {
        episodes.push_back(run_episode<Run>(workload, config_of(0, 1), "t1", 0,
                                            std::min(kSpeedupRounds, rounds),
                                            tracer));
      }
    }
  }
  const Verdict verdict = verify(options, episodes, cluster);

  // Per-sub-seed outcomes from each sub-seed's first episode.
  std::vector<const Episode*> first(kSubSeeds, nullptr);
  for (const Episode& ep : episodes) {
    if (first[ep.sub] == nullptr) first[ep.sub] = &ep;
  }
  first.erase(std::remove(first.begin(), first.end(), nullptr), first.end());

  std::vector<double> setup_s;
  for (const Episode& ep : episodes) {
    for (const SetupTimes& s : ep.setups) setup_s.push_back(s.total_s);
  }

  JsonObject metrics;
  std::size_t timed_rounds = 0;
  if (!options.trace) {
    // The host's speed changes in spells of seconds to minutes. A spell
    // that covers one episode shifts that episode's level, not its shape,
    // so rounds_per_s is the median of the per-episode rates and the tail
    // is the pooled median times the percentile of each round's time
    // relative to its own episode's median.
    std::vector<double> round_s;
    std::vector<double> relative_round_s;
    std::vector<double> episode_rates;
    std::vector<double> time_to_eps(kSubSeeds, 0.0);
    std::vector<std::size_t> episodes_of(kSubSeeds, 0);
    for (const Episode& ep : episodes) {
      round_s.insert(round_s.end(), ep.round_s.begin(), ep.round_s.end());
      const double episode_median = median(ep.round_s);
      for (const double r : ep.round_s) {
        relative_round_s.push_back(r / episode_median);
      }
      episode_rates.push_back(static_cast<double>(ep.rounds) / sum(ep.round_s));
      time_to_eps[ep.sub] += sum(ep.round_s);
      ++episodes_of[ep.sub];
    }
    const double round_p50 = median(round_s);
    // Medians over sub-seeds: a straggler sub-seed (34 rounds where the
    // others take 20 on the GM workload) must not move the run's figure.
    std::vector<double> sub_rounds;
    std::vector<double> sub_time_to_eps;
    for (const Episode* ep : first) {
      sub_rounds.push_back(static_cast<double>(ep->rounds));
      sub_time_to_eps.push_back(time_to_eps[ep->sub] /
                                static_cast<double>(episodes_of[ep->sub]));
    }
    timed_rounds = round_s.size();
    metrics.num("setup_s", median(setup_s))
        .num("rounds_per_s", median(episode_rates))
        .num("round_ms_p50", round_p50 * 1e3)
        .num("round_ms_tail",
             round_p50 *
                 percentile(relative_round_s, workload.tail_percentile) * 1e3)
        .num("time_to_eps_s", median(sub_time_to_eps))
        .num("rounds_to_eps", median(sub_rounds))
        .num("peak_rss_mb", peak_rss_mb());
  } else {
    // --- per-layer metrics from the traced replays -----------------------
    const Episode& probe = episodes.front();
    std::size_t traced_rounds = 0;
    Counters traced;
    std::vector<double> cpu;
    std::vector<double> untraced_round_s;
    std::vector<double> traced_round_s;
    const Episode* last_traced = nullptr;
    const Episode* t1 = nullptr;
    for (const Episode& ep : episodes) {
      const std::string_view label = ep.label;
      if (label == "replay") {
        untraced_round_s.insert(untraced_round_s.end(), ep.round_s.begin(),
                                ep.round_s.end());
      } else if (label == "traced") {
        last_traced = &ep;
        traced_rounds += ep.rounds;
        for (const Counters& c : ep.round_counters) traced += c;
        cpu.insert(cpu.end(), ep.round_cpu_s.begin(), ep.round_cpu_s.end());
        traced_round_s.insert(traced_round_s.end(), ep.round_s.begin(),
                              ep.round_s.end());
      } else if (label == "t1") {
        t1 = &ep;
      }
    }
    timed_rounds = traced_rounds;
    const double rounds_d =
        static_cast<double>(std::max<std::size_t>(traced_rounds, 1));
    const double per_round_ms = 1e3 / rounds_d;
    auto span_ms = [&](std::string_view name) {
      return tracer->total(name, "traced") * per_round_ms;
    };
    const double round_ms = span_ms("round");
    const double prepare_ms = cluster ? 0.0 : traced.prepare_s * per_round_ms;
    const double absorb_ms = cluster ? 0.0 : traced.absorb_s * per_round_ms;
    // On the SoA engines serial time (plan, deliver, crash) is the part of
    // the round span outside prepare and absorb.
    const double serial_ms = cluster ? 0.0 : round_ms - prepare_ms - absorb_ms;
    const double partition_ms = traced.partition_s * per_round_ms;
    const double cpu_ms = sum(cpu) * per_round_ms;
    const double begin_ms = span_ms("shard.begin_round");
    const double poll_ms =
        span_ms("shard.try_complete_round") + span_ms("shard.service");
    const double finish_ms = span_ms("shard.finish_round");
    const double advance_ms = span_ms("net.advance");
    const double phases_ms = cluster ? begin_ms + poll_ms + finish_ms + advance_ms
                                     : prepare_ms + absorb_ms + serial_ms;

    // The first rounds at one thread against the same rounds traced at the
    // workload's thread count (the cluster already runs at one thread).
    double speedup = 1.0;
    double inflation = 1.0;
    if (t1 != nullptr && last_traced != nullptr) {
      double wall_1 = 0.0, wall_n = 0.0, part_1 = 0.0, part_n = 0.0;
      for (std::size_t r = 0; r < t1->rounds; ++r) {
        wall_1 += t1->round_s[r];
        wall_n += last_traced->round_s[r];
        part_1 += t1->round_counters[r].partition_s;
        part_n += last_traced->round_counters[r].partition_s;
      }
      speedup = wall_1 / wall_n;
      inflation = part_n / part_1;
    }

    std::vector<double> inputs_ms, topology_ms, build_ms, map_ms, rss_mb;
    for (const Episode& ep : episodes) {
      for (const SetupTimes& s : ep.setups) {
        inputs_ms.push_back(s.inputs_s * 1e3);
        topology_ms.push_back(s.topology_s * 1e3);
        build_ms.push_back(s.build_s * 1e3);
        if (tracer != nullptr && std::string_view(ep.label) == "traced") {
          map_ms.push_back(s.map_s * 1e3);
        }
      }
      rss_mb.push_back(ep.rss_after_setup_mb);
    }
    const double untraced_p50 = median(untraced_round_s);
    const double traced_p50 = median(traced_round_s);
    const double frames = static_cast<double>(traced.frames);

    metrics.num("workload.inputs_ms", median(inputs_ms))
        .num("sim.topology_ms", median(topology_ms))
        .num("gossip.engine_build_ms", cluster ? 0.0 : median(build_ms))
        .num("shard.cluster_build_ms", cluster ? median(build_ms) : 0.0)
        .num("shard.map_ms", cluster ? median(map_ms) : 0.0)
        .num("sim.rss_after_setup_mb", median(rss_mb))
        .num("sim.round_ms", round_ms)
        .num("sim.prepare_ms", prepare_ms)
        .num("sim.absorb_ms", absorb_ms)
        .num("sim.serial_ms", serial_ms)
        .num("sim.mean_collections", median(probe.mean_collections))
        .num("partition.busy_ms", partition_ms)
        .num("em.busy_ms", traced.em_s * per_round_ms)
        .num("core.absorb_overhead_share",
             cluster ? 0.0
                     : 1.0 - partition_ms /
                                 (static_cast<double>(threads) * absorb_ms))
        .num("exec.cpu_ms", cpu_ms)
        .num("exec.parallelism", cpu_ms / round_ms)
        .num("exec.speedup_vs_1t", speedup)
        .num("exec.partition_inflation", inflation)
        .num("metrics.probe_ms", median(probe.probe_s) * 1e3)
        .num("shard.begin_ms", begin_ms)
        .num("shard.poll_ms", poll_ms)
        .num("shard.finish_ms", finish_ms)
        .num("net.advance_ms", advance_ms)
        .num("net.advances_per_round",
             static_cast<double>(traced.advances) / rounds_d)
        .num("wire_bytes_per_round",
             static_cast<double>(traced.link_bytes) / rounds_d)
        .num("shard.frames_per_round", frames / rounds_d)
        .num("shard.records_per_frame",
             frames > 0.0 ? static_cast<double>(traced.records) / frames : 0.0)
        .num("shard.retransmits_per_round",
             static_cast<double>(traced.retransmits) / rounds_d)
        .num("shard.boundary_share",
             static_cast<double>(traced.boundary_nodes) /
                 (rounds_d * static_cast<double>(probe.nodes)))
        .num("shard.decode_errors", static_cast<double>(traced.decode_errors))
        .num("shard.peer_timeouts", static_cast<double>(traced.peer_timeouts))
        .num("net.send_failures", static_cast<double>(traced.send_failures))
        .num("trace.overhead_share", traced_p50 / untraced_p50 - 1.0)
        .num("trace.phase_gap_share", (round_ms - phases_ms) / round_ms);
    if (!options.spans_out.empty()) tracer->write(options.spans_out);
  }

  auto as_string = [](const std::string& s) { return quoted(s); };
  JsonObject out;
  out.str("workload", workload.name)
      .integer("seed", options.seed)
      .integer("trace", options.trace ? 1 : 0)
      .integer("threads", threads)
      .integer("shards", workload.shards)
      .num("link_loss", workload.link_loss)
      .integer("nodes", episodes.front().nodes)
      .integer("edges", episodes.front().edges)
      .num("eps", workload.eps)
      .str("simd", ddc::linalg::simd::tier_name(ddc::linalg::simd::dispatch()))
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .integer("episodes", episodes.size())
      .integer("timed_rounds", timed_rounds)
      .num("tail_percentile", workload.tail_percentile)
      .integer("setup_samples", setup_s.size())
      .integer("attempted", verdict.attempted)
      .integer("failed", verdict.failed)
      .raw("failures", json_list(verdict.failures, as_string))
      .raw("digests", json_list(first, [](const Episode* ep) {
             return quoted(ep->digest);
           }))
      .raw("rounds", json_list(first, [](const Episode* ep) {
             return std::to_string(ep->rounds);
           }))
      .raw("wire_bytes", json_list(first, [](const Episode* ep) {
             return std::to_string(ep->wire_bytes);
           }))
      .raw("episode_s", json_list(episodes, [](const Episode& ep) {
             char buf[32];
             std::snprintf(buf, sizeof buf, "%.4f", sum(ep.round_s));
             return std::string(buf);
           }))
      .num("seconds", elapsed())
      .raw("metrics", metrics.text());
  std::cout << out.text() << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: ddc_perfbench --workload NAME [--seed N] [--seconds S]\n"
               "         [--trace 0|1] [--link-loss P] [--one-cycle 1]\n"
               "         [--expect-digest H0,H1,..] [--expect-rounds R0,..]\n"
               "         [--expect-wire-bytes W0,..] [--spans-out PATH]\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = value == "1";
      else if (flag == "--link-loss") options.link_loss = std::stod(value);
      else if (flag == "--one-cycle") options.one_cycle = value == "1";
      else if (flag == "--expect-digest") options.expect_digest = split_list(value);
      else if (flag == "--expect-rounds") options.expect_rounds = split_list(value);
      else if (flag == "--expect-wire-bytes") options.expect_wire_bytes = split_list(value);
      else if (flag == "--spans-out") options.spans_out = value;
      else return usage();
    }
    for (const Workload& w : kWorkloads) {
      if (w.name != options.workload) continue;
      switch (w.kind) {
        case Kind::centroid_soa:
          return run_workload<SoaRun<CentroidSoa>>(options, w);
        case Kind::gm_soa:
          return run_workload<SoaRun<GmSoa>>(options, w);
        case Kind::centroid_cluster:
          return run_workload<ClusterRun>(options, w);
      }
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "ddc_perfbench: " << e.what() << '\n';
    return 1;
  }
}
