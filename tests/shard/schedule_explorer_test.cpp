// Schedule-exhaustive race explorer for the shard batch/ack protocol.
//
// The loopback and UDP transports exercise the protocol under *one*
// delivery schedule per seed; protocol races hide in the schedules a
// given transport never produces. This harness closes that gap for the
// single-round exchange: a ScriptedTransport hands every sent frame to
// the test instead of a network, and a DFS enumerates every delivery
// order of the round's batch + ack frames — optionally with a bounded
// number of drops and duplicates — asserting on every schedule that
//
//   1. liveness: the round barrier resolves (retransmits recover any
//      dropped frame; a schedule where polling every open engine makes
//      no progress is a deadlock violation), and
//   2. bit-exactness: the completed cluster's FNV digest over every
//      node's wire-encoded classification equals the 1-shard monolithic
//      digest — the paper-level invariant that shard count AND message
//      schedule are unobservable in the result.
//
// Engines are deliberately non-copyable (they own a thread pool), so
// the DFS is replay-based: each explored prefix rebuilds the world from
// scratch and re-applies its actions. Termination needs state hashing:
// retransmits re-insert byte-identical frames, so the raw schedule tree
// has cycles (deliver a retransmit, provoke another retransmit, ...).
// Within a round, engine state is a pure function of the SET of frames
// delivered to it (handlers are idempotent and commutative, retransmits
// byte-identical), and that set only grows — so hashing (pending set,
// per-shard delivered sets, completion flags, fault budgets) visits
// every reachable protocol state exactly once and cuts every cycle.
//
// A planted-bug cell re-enables a suppressed-empty-barrier-retransmit
// bug (ShardEngineOptions::testing_suppress_empty_barrier_retransmit)
// and asserts the explorer finds the resulting deadlock — proving the
// harness can actually catch a protocol race, not just pass on trunk.
#include <ddc/shard/factories.hpp>

#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/net/transport.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/wire/serialize.hpp>

namespace ddc::shard {
namespace {

// ---------------------------------------------------------------------------
// Scripted transport: sends land in a controller the test owns.
// ---------------------------------------------------------------------------

/// One frame the harness may deliver, drop or duplicate. Ordered so the
/// DFS enumerates pending frames deterministically; a retransmit is
/// byte-identical to the original, so the pending set collapses it
/// (delivering either copy is the same transition).
struct InFlight {
  net::PeerId from = 0;
  net::PeerId to = 0;
  std::vector<std::byte> bytes;

  bool operator<(const InFlight& o) const {
    return std::tie(from, to, bytes) < std::tie(o.from, o.to, o.bytes);
  }
};

/// Shared mailbox: `pending` is the schedulable frontier, `staged[s]`
/// what shard s's next receive() drains. Heap-owned by World so its
/// address survives World moves (transports keep a pointer to it).
struct ScriptController {
  std::set<InFlight> pending;
  std::vector<std::vector<net::Packet>> staged;
};

class ScriptedTransport final : public net::Transport {
 public:
  ScriptedTransport(ScriptController* ctrl, net::PeerId self,
                    std::size_t num_peers)
      : ctrl_(ctrl), self_(self), num_peers_(num_peers) {}

  [[nodiscard]] net::PeerId self() const override { return self_; }
  [[nodiscard]] std::size_t num_peers() const override { return num_peers_; }

  void send(net::PeerId to, const std::vector<std::byte>& frame) override {
    ctrl_->pending.insert(InFlight{self_, to, frame});
  }

  [[nodiscard]] std::vector<net::Packet> receive() override {
    return std::exchange(ctrl_->staged[self_], {});
  }

  [[nodiscard]] const net::LinkStats& stats(net::PeerId) const override {
    return stats_;
  }

 private:
  ScriptController* ctrl_;
  net::PeerId self_;
  std::size_t num_peers_;
  net::LinkStats stats_;
};

// ---------------------------------------------------------------------------
// World construction and replay.
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over wire-encoded classifications (same digest as the
/// shard equivalence suite).
class Digest {
 public:
  void absorb(const std::vector<std::byte>& bytes) {
    for (const std::byte b : bytes) {
      hash_ ^= static_cast<std::uint64_t>(b);
      hash_ *= 0x100000001b3ULL;
    }
  }
  void absorb_byte(std::uint8_t b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setfill('0') << std::setw(16) << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::vector<linalg::Vector> bimodal_inputs(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<linalg::Vector> inputs;
  inputs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(linalg::Vector{
        i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(25.0, 2.0),
        rng.normal(0.0, 1.0)});
  }
  return inputs;
}

struct Cell {
  ShardId num_shards = 2;
  std::size_t nodes = 16;
  std::uint64_t seed = 1;
  double loss = 0.0;
  bool planted_bug = false;
  std::size_t drop_budget = 0;
  std::size_t dup_budget = 0;
};

sim::EngineConfig cell_config(const Cell& cell) {
  sim::EngineConfig config;
  config.topology.family = sim::TopologyFamily::complete;
  config.topology.nodes = cell.nodes;
  config.k = 2;
  config.protocol_seed = cell.seed + 100;
  config.seed = cell.seed + 200;
  config.message_loss_probability = cell.loss;
  return config;
}

ShardEngineOptions cell_options(const Cell& cell) {
  ShardEngineOptions options;
  // Retransmit on every poll so liveness never depends on poll counts,
  // and never declare peers dead — a schedule that needs the timeout to
  // finish IS a liveness bug here.
  options.resend_interval_polls = 1;
  options.max_exchange_polls = 0;
  options.overlap_chunk = 0;  // no mid-compute polls; actions drive all I/O
  options.testing_suppress_empty_barrier_retransmit = cell.planted_bug;
  return options;
}

struct World {
  std::unique_ptr<ScriptController> ctrl;
  std::vector<std::unique_ptr<ScriptedTransport>> transports;
  std::vector<CentroidShardEngine> engines;
  std::vector<bool> completed;
  /// Frames each shard has had staged+polled at least once; with
  /// idempotent handlers this set determines the engine's exchange
  /// state, making it the sound memoization ingredient.
  std::vector<std::set<InFlight>> delivered;

  [[nodiscard]] bool all_complete() const {
    for (const bool c : completed) {
      if (!c) return false;
    }
    return true;
  }
};

enum class Kind : std::uint8_t { deliver, drop, duplicate };

struct Action {
  Kind kind = Kind::deliver;
  InFlight frame;
};

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::deliver:
      return "deliver";
    case Kind::drop:
      return "drop";
    case Kind::duplicate:
      return "duplicate";
  }
  return "?";
}

std::string describe(const std::vector<Action>& actions) {
  std::ostringstream os;
  for (const Action& a : actions) {
    os << kind_name(a.kind) << "(" << a.frame.from << "->" << a.frame.to
       << ", " << a.frame.bytes.size() << "B) ";
  }
  return os.str();
}

/// A frame is *fresh* if its receiver has never had these bytes applied.
/// Only fresh deliveries can change receiver state (handlers are
/// idempotent), so only fresh frames are DFS branch points; stale
/// retransmit copies are delivered deterministically inside drain().
bool is_fresh(const World& w, const InFlight& f) {
  return w.delivered[f.to].count(f) == 0;
}

bool has_fresh(const World& w) {
  for (const InFlight& f : w.ctrl->pending) {
    if (is_fresh(w, f)) return true;
  }
  return false;
}

void stage_and_poll(World& w, const InFlight& frame) {
  w.ctrl->staged[frame.to].push_back(net::Packet{frame.from, frame.bytes});
  w.delivered[frame.to].insert(frame);
  if (!w.completed[frame.to]) {
    if (w.engines[frame.to].try_complete_round()) w.completed[frame.to] = true;
  } else {
    w.engines[frame.to].service();  // drains stale retransmits, re-acks
  }
}

/// Runs the deterministic part of the protocol until a fresh frame
/// appears (a new DFS branch point), everyone completes, or a full
/// sweep changes nothing — the last is a deadlock: the protocol is
/// waiting on a frame nobody will ever send again. A sweep polls every
/// open engine (driving retransmits) and delivers every stale pending
/// copy (the eventual-delivery fairness a real transport provides;
/// stale deliveries cannot change receiver state, only provoke re-acks,
/// so their order is immaterial — the duplicate budget is what checks
/// that idempotence claim).
bool drain(World& w) {
  while (!w.all_complete() && !has_fresh(w)) {
    bool progress = false;
    for (std::size_t s = 0; s < w.engines.size(); ++s) {
      if (w.completed[s]) continue;
      if (w.engines[s].try_complete_round()) {
        w.completed[s] = true;
        progress = true;
      }
    }
    const std::vector<InFlight> stale(w.ctrl->pending.begin(),
                                      w.ctrl->pending.end());
    for (const InFlight& f : stale) {
      if (is_fresh(w, f)) continue;  // appeared mid-sweep; DFS owns it
      const bool was_complete = w.completed[f.to];
      w.ctrl->pending.erase(f);
      stage_and_poll(w, f);
      if (w.completed[f.to] && !was_complete) progress = true;
    }
    if (has_fresh(w)) progress = true;
    if (!progress) return false;
  }
  return true;
}

/// Rebuilds the world and re-applies the action prefix; sets *deadlock
/// when the prefix (or its mandatory drain polls) wedges the barrier.
World replay(const Cell& cell, const std::vector<Action>& actions,
             bool* deadlock) {
  World w;
  w.ctrl = std::make_unique<ScriptController>();
  w.ctrl->staged.resize(cell.num_shards);
  w.delivered.resize(cell.num_shards);
  const sim::EngineConfig config = cell_config(cell);
  const auto inputs = bimodal_inputs(cell.nodes, cell.seed);
  const ShardEngineOptions options = cell_options(cell);
  for (ShardId s = 0; s < cell.num_shards; ++s) {
    w.transports.push_back(std::make_unique<ScriptedTransport>(
        w.ctrl.get(), s, cell.num_shards));
  }
  for (ShardId s = 0; s < cell.num_shards; ++s) {
    w.engines.push_back(make_centroid_shard_engine(
        sim::Topology::complete(cell.nodes), inputs, config, s,
        cell.num_shards, w.transports[s].get(), options));
  }
  w.completed.assign(cell.num_shards, false);
  for (CentroidShardEngine& engine : w.engines) engine.begin_round();
  *deadlock = false;
  for (const Action& action : actions) {
    // Replay determinism: the prefix was built against these states, so
    // every action's frame must still be schedulable.
    if (w.ctrl->pending.count(action.frame) != 1) {
      ADD_FAILURE() << "replay diverged at: " << describe(actions);
      *deadlock = true;
      return w;
    }
    switch (action.kind) {
      case Kind::deliver:
        w.ctrl->pending.erase(action.frame);
        stage_and_poll(w, action.frame);
        break;
      case Kind::drop:
        w.ctrl->pending.erase(action.frame);
        break;
      case Kind::duplicate:
        stage_and_poll(w, action.frame);
        break;
    }
    if (!drain(w)) {
      *deadlock = true;
      return w;
    }
  }
  if (!drain(w)) *deadlock = true;
  return w;
}

std::string digest_world(const World& w) {
  Digest digest;
  const ShardMap& map = w.engines.front().map();
  for (sim::NodeId i = 0; i < map.num_nodes(); ++i) {
    const auto& node = w.engines[map.shard_of(i)].nodes()[map.local_index(i)];
    digest.absorb(wire::encode_classification(node.classification()));
  }
  return digest.hex();
}

/// The oracle: the same config collapsed to one shard (no transport at
/// all). Bit-exact equality with every explored schedule is the
/// shard-count/schedule-unobservability contract.
std::string reference_digest(const Cell& cell) {
  Cell mono = cell;
  mono.num_shards = 1;
  mono.planted_bug = false;
  World w;
  w.ctrl = std::make_unique<ScriptController>();
  w.ctrl->staged.resize(1);
  w.delivered.resize(1);
  w.engines.push_back(make_centroid_shard_engine(
      sim::Topology::complete(mono.nodes),
      bimodal_inputs(mono.nodes, mono.seed), cell_config(mono), 0, 1, nullptr,
      cell_options(mono)));
  w.completed.assign(1, false);
  w.engines.front().run_round();
  return digest_world(w);
}

// ---------------------------------------------------------------------------
// The explorer: DFS with state hashing over schedulable actions.
// ---------------------------------------------------------------------------

struct ExploreStats {
  std::size_t schedules = 0;         ///< arrivals at all-complete states
  std::size_t deadlocks = 0;
  std::size_t digest_mismatches = 0;
  std::size_t states = 0;            ///< distinct protocol states visited
  std::size_t budget_hits = 0;
  std::vector<std::string> violations;
};

/// The state hash: pending set + per-shard delivered sets + completion
/// flags + remaining fault budgets. Engine exchange state is a function
/// of the delivered set (idempotent, commutative handlers), so equal
/// keys mean equal worlds — and delivered sets only grow, so every
/// cycle in the schedule tree revisits a key and is cut here.
std::uint64_t state_key(const World& w, std::size_t drops, std::size_t dups) {
  Digest d;
  for (const bool c : w.completed) d.absorb_byte(c ? 1 : 0);
  d.absorb_byte(static_cast<std::uint8_t>(drops));
  d.absorb_byte(static_cast<std::uint8_t>(dups));
  const auto absorb_frame = [&d](const InFlight& f) {
    d.absorb_byte(static_cast<std::uint8_t>(f.from));
    d.absorb_byte(static_cast<std::uint8_t>(f.to));
    d.absorb(f.bytes);
  };
  d.absorb_byte(0xaa);
  for (const InFlight& f : w.ctrl->pending) absorb_frame(f);
  for (const std::set<InFlight>& shard_set : w.delivered) {
    d.absorb_byte(0xbb);
    for (const InFlight& f : shard_set) absorb_frame(f);
  }
  return d.value();
}

constexpr std::size_t kMaxSteps = 64;

void explore(const Cell& cell, const std::string& reference,
             std::vector<Action>& prefix, std::size_t drops,
             std::size_t dups, std::set<std::uint64_t>& seen,
             ExploreStats& stats) {
  bool deadlock = false;
  const World w = replay(cell, prefix, &deadlock);
  if (deadlock) {
    ++stats.deadlocks;
    if (stats.violations.size() < 8) {
      stats.violations.push_back("deadlock after: " + describe(prefix));
    }
    return;
  }
  if (w.all_complete()) {
    ++stats.schedules;
    if (digest_world(w) != reference) {
      ++stats.digest_mismatches;
      if (stats.violations.size() < 8) {
        stats.violations.push_back("digest mismatch after: " +
                                   describe(prefix));
      }
    }
    return;
  }
  if (!seen.insert(state_key(w, drops, dups)).second) return;
  ++stats.states;
  if (prefix.size() >= kMaxSteps) {
    ++stats.budget_hits;
    return;
  }
  // Deterministic branch order: the pending set is ordered. Only fresh
  // frames branch — a stale retransmit copy cannot change receiver
  // state, so its delivery happens deterministically in drain(). The
  // drop and duplicate branches also target fresh frames only (dropping
  // or duplicating an already-applied copy is a no-op the state hash
  // would cut anyway). Each path therefore delivers each distinct frame
  // at most once, which bounds the depth by the frame alphabet plus the
  // fault budgets.
  const std::vector<InFlight> frontier(w.ctrl->pending.begin(),
                                       w.ctrl->pending.end());
  for (const InFlight& frame : frontier) {
    if (!is_fresh(w, frame)) continue;
    prefix.push_back(Action{Kind::deliver, frame});
    explore(cell, reference, prefix, drops, dups, seen, stats);
    prefix.pop_back();
    if (drops < cell.drop_budget) {
      prefix.push_back(Action{Kind::drop, frame});
      explore(cell, reference, prefix, drops + 1, dups, seen, stats);
      prefix.pop_back();
    }
    if (dups < cell.dup_budget) {
      prefix.push_back(Action{Kind::duplicate, frame});
      explore(cell, reference, prefix, drops, dups + 1, seen, stats);
      prefix.pop_back();
    }
  }
}

ExploreStats run_explorer(const Cell& cell) {
  ExploreStats stats;
  const std::string reference = reference_digest(cell);
  std::vector<Action> prefix;
  std::set<std::uint64_t> seen;
  explore(cell, reference, prefix, 0, 0, seen, stats);
  EXPECT_EQ(stats.budget_hits, 0u) << "frame budget hit — exploration "
                                      "was truncated, raise kMaxSteps";
  std::cout << "[explorer] shards=" << static_cast<unsigned>(cell.num_shards)
            << " drops<=" << cell.drop_budget << " dups<=" << cell.dup_budget
            << " -> schedules=" << stats.schedules
            << " states=" << stats.states << " deadlocks=" << stats.deadlocks
            << "\n";
  return stats;
}

void expect_clean(const ExploreStats& stats) {
  EXPECT_EQ(stats.deadlocks, 0u);
  EXPECT_EQ(stats.digest_mismatches, 0u);
  for (const std::string& v : stats.violations) ADD_FAILURE() << v;
}

// ---------------------------------------------------------------------------
// Cells.
// ---------------------------------------------------------------------------

TEST(ScheduleExplorer, TwoShardDeliveryPermutations) {
  // Pure delivery-order exhaustion (no faults): every interleaving of
  // the 2 batch + 2 ack frames (and of the retransmits the schedule
  // itself provokes), modulo protocol-state equivalence.
  Cell cell;
  cell.num_shards = 2;
  cell.nodes = 16;
  const ExploreStats stats = run_explorer(cell);
  expect_clean(stats);
  // 2 batches then 2 acks with each ack causally after its batch admit
  // at least the 6 classic interleavings.
  EXPECT_GE(stats.schedules, 6u);
  EXPECT_GE(stats.states, 6u);
}

TEST(ScheduleExplorer, TwoShardDropsAndDuplicates) {
  // The acceptance cell: every single-round delivery schedule with up
  // to one dropped and one duplicated frame, exhaustively (state
  // hashing makes the retransmit-closure finite).
  Cell cell;
  cell.num_shards = 2;
  cell.nodes = 16;
  cell.drop_budget = 1;
  cell.dup_budget = 1;
  const ExploreStats stats = run_explorer(cell);
  expect_clean(stats);
  EXPECT_GE(stats.schedules, 50u);
  EXPECT_GE(stats.states, 50u);
}

TEST(ScheduleExplorer, ThreeShardPermutations) {
  // 3 shards: 6 batch frames + up to 6 acks, all delivery orders.
  Cell cell;
  cell.num_shards = 3;
  cell.nodes = 12;
  const ExploreStats stats = run_explorer(cell);
  expect_clean(stats);
  EXPECT_GE(stats.schedules, 90u);  // >= 6!/(2!*2!*2!) batch interleavings
  EXPECT_GE(stats.states, 90u);
}

TEST(ScheduleExplorer, LossyBarrierPermutations) {
  // message_loss_probability = 1: every cross-shard record is dropped
  // sender-side, so both batch frames are bare barrier tokens — the
  // pure barrier handshake, plus a drop to force the retransmit path.
  Cell cell;
  cell.num_shards = 2;
  cell.nodes = 16;
  cell.loss = 1.0;
  cell.drop_budget = 1;
  const ExploreStats stats = run_explorer(cell);
  expect_clean(stats);
  EXPECT_GE(stats.schedules, 6u);
}

TEST(ScheduleExplorer, PlantedBugIsCaught) {
  // Re-enable the suppressed-empty-barrier-retransmit bug: empty
  // batches are barrier tokens, and a protocol that declines to
  // retransmit them deadlocks as soon as one is dropped. The explorer
  // must find that deadlock — this is the harness's self-test.
  Cell cell;
  cell.num_shards = 2;
  cell.nodes = 16;
  cell.loss = 1.0;  // all batches empty -> pure barrier round
  cell.drop_budget = 1;
  cell.planted_bug = true;
  ExploreStats stats;
  const std::string reference = reference_digest(cell);
  std::vector<Action> prefix;
  std::set<std::uint64_t> seen;
  explore(cell, reference, prefix, 0, 0, seen, stats);
  EXPECT_GT(stats.deadlocks, 0u)
      << "the planted empty-barrier-retransmit bug went undetected — "
         "the explorer has lost its teeth";
  // Fault-free schedules still complete and still agree bit-exactly.
  EXPECT_GE(stats.schedules, 1u);
  EXPECT_EQ(stats.digest_mismatches, 0u);
}

}  // namespace
}  // namespace ddc::shard
