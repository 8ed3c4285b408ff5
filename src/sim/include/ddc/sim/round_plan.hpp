// RoundPlan — everything in a synchronous round that is not node state.
//
// The paper measures progress in rounds (Section 5.3): in each round every
// live node sends to one neighbor, and each receiver merges everything it
// got in one batch; after the round every live node crashes independently
// with fixed probability (Fig. 4). The three round engines — RoundRunner
// (one object per node), SoaRoundEngine (struct-of-arrays pools) and
// shard::ShardEngine (one shard's nodes plus a batch exchange) — differ
// only in where node state and messages live. The schedule is written
// once, here, and every engine calls it:
//
//   plan()            phase 1: selection draws in node order, then the
//                     reply-request CSR (who owes whom a reply);
//   for_each_split()  phase 2: one node's split order — replies to
//                     lower-indexed initiators, its own send, replies to
//                     higher-indexed initiators;
//   for_each_hop()    phase 3: the delivery walk in node order, each
//                     initiator's forward then the reply owed to it, with
//                     the dead-target rule and the loss verdict applied;
//   end_round()       phase 5: crash draws, then the round counter.
//
// Phases 2 and 4 (prepare, absorb) are the engines' own; they touch only
// node-local state, so they may fan out across threads.
//
// A message is named by a Hop: its initiator and its leg (the initiator's
// forward, or the reply its contact owes it). A live node initiates at
// most one exchange per round, so (initiator, leg) is unique within a
// round, and slot() maps it into a flat 2n message arena.
//
// Determinism. Selection and crash draws come from one environment
// stream consumed sequentially, in node order, on the sequential phases
// only — so thread count never changes them, and every shard of a cluster
// replays them identically over all n nodes. Loss is not drawn from a
// stream: each verdict is a pure function of (seed, round, leg,
// initiator). It therefore does not depend on which messages turned out
// empty, on delivery order, or on which shard evaluates it, and a lossy
// object, SoA or cluster run of one configuration is the same run bit for
// bit. Lossless runs never evaluate it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/neighbor_selection.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// Configuration of a round-based run. Selection, pattern and seed come
/// from the shared options layer (CommonRunnerOptions).
struct RoundRunnerOptions : CommonRunnerOptions {
  /// Per-node probability of crashing at the end of each round (Fig. 4
  /// uses 0.05; 0 disables crashes).
  double crash_probability = 0.0;
  CrashSendPolicy crash_send_policy = CrashSendPolicy::avoid_crashed;
  /// Probability that any individual message is silently lost in the
  /// channel. The paper's model assumes RELIABLE links (Section 3.1) — a
  /// nonzero value deliberately violates that assumption so its role can
  /// be studied (bench/abl_channel_reliability): lost messages destroy
  /// weight, which the protocol never recovers. Each verdict is hashed
  /// from (seed, round, leg, initiator) and consumes no environment
  /// draw, so turning losses on does not reshuffle anyone's neighbor
  /// choices.
  double message_loss_probability = 0.0;
  /// Worker threads for the prepare/absorb phases: 1 runs fully
  /// sequentially (no pool is even created), 0 means one per hardware
  /// thread. Any value produces bit-identical results.
  std::size_t parallelism = 1;
};

/// Accumulated wall-clock of the two parallel phases, measured once per
/// round around the whole phase (two clock reads each — negligible next
/// to the phase bodies). Feeds `ddcsim --timing`.
struct RoundPhaseTimings {
  double prepare_seconds = 0.0;
  double absorb_seconds = 0.0;
};

/// Runs `phase` and adds its wall-clock to `seconds`. Audited timing
/// probe: the clock reads feed only the `--timing` counters, never
/// control flow, so a round's outcome stays a pure function of
/// (options, seed).
template <typename Phase>
void timed_phase(double& seconds, Phase&& phase) {
  const auto start = std::chrono::steady_clock::now();  // ddclint: allow(wall-clock)
  phase();
  const auto stop = std::chrono::steady_clock::now();  // ddclint: allow(wall-clock)
  seconds += std::chrono::duration<double>(stop - start).count();
}

/// "No target this round" in a flat target array.
inline constexpr NodeId kNoTarget = static_cast<NodeId>(-1);

/// Which message of an exchange: the initiator's own send, or the reply
/// its contact owes it. The values are part of the loss hash.
enum class Leg : std::uint8_t {
  forward = 0,
  reply = 1,
};

/// One planned message. A forward runs initiator → target, a reply
/// target → initiator.
struct Hop {
  NodeId initiator = 0;
  Leg leg = Leg::forward;
  NodeId from = 0;
  NodeId to = 0;
};

/// What the channel did with a sent message.
enum class Fate : std::uint8_t {
  delivered,
  /// The receiver is dead (reachable only under drop_at_crashed).
  dead_target,
  /// The channel lost it (message_loss_probability > 0).
  lost,
  /// Not a message: a live initiator with no eligible neighbor, reported
  /// in walk order so a tracer can log it (from = to = initiator).
  no_target,
};

/// The schedule of synchronous rounds over n nodes (see the file
/// comment); one per engine, or one global replica per shard.
class RoundPlan {
 public:
  RoundPlan(const RoundRunnerOptions& options, std::size_t num_nodes)
      : options_(options),
        n_(num_nodes),
        env_rng_(stats::Rng::derive(options.seed, 0x524e445255ULL)),
        loss_seed_(stats::derive_seed(options.seed, 0x4c4f5353ULL)),
        alive_(num_nodes, true),
        selector_(options.selection, num_nodes),
        targets_(num_nodes, kNoTarget),
        req_offsets_(num_nodes + 1, 0),
        req_initiators_(num_nodes, 0) {
    DDC_EXPECTS(options_.crash_probability >= 0.0 &&
                options_.crash_probability <= 1.0);
    DDC_EXPECTS(options_.message_loss_probability >= 0.0 &&
                options_.message_loss_probability <= 1.0);
  }

  /// Phase 1 — environment draws only. Picks every live node's gossip
  /// target and, for patterns with a pull component, lowers who owes whom
  /// a reply into a CSR (initiators ascending per responder). Consumes
  /// exactly the selection draws, in node order, regardless of message
  /// contents or thread count.
  // ddcverify: hotpath
  void plan(const Topology& topology) {
    DDC_EXPECTS(topology.num_nodes() == n_);
    const bool avoid =
        options_.crash_send_policy == CrashSendPolicy::avoid_crashed;
    for (NodeId i = 0; i < n_; ++i) {
      targets_[i] = kNoTarget;
      if (!alive_[i]) continue;
      const std::optional<NodeId> target =
          selector_.pick(topology, i, alive_, avoid, env_rng_);
      if (target) targets_[i] = *target;
    }
    if (!replies()) return;  // offsets stay all-zero: nobody owes a reply
    // Counting sort: req_offsets_[t] first counts t's requests, then
    // holds its END after an inclusive prefix sum; placing initiators in
    // descending order walks each END back to its start.
    std::fill(req_offsets_.begin(), req_offsets_.end(), std::size_t{0});
    for (NodeId i = 0; i < n_; ++i) {
      if (owes_reply(i)) ++req_offsets_[targets_[i]];
    }
    for (NodeId j = 1; j <= n_; ++j) req_offsets_[j] += req_offsets_[j - 1];
    for (NodeId i = n_; i-- > 0;) {
      if (owes_reply(i)) req_initiators_[--req_offsets_[targets_[i]]] = i;
    }
  }

  /// Phase 2 — calls `split(hop)` for every message node j prepares this
  /// round, in the order the sequential engine reaches them: replies to
  /// lower-indexed initiators, j's own forward, replies to higher-indexed
  /// initiators. Per-node order is pinned, so a node's state evolution
  /// does not depend on which thread prepares it.
  // ddcverify: hotpath
  template <typename Split>
  void for_each_split(NodeId j, Split&& split) const {
    const std::size_t end = req_offsets_[j + 1];
    std::size_t r = req_offsets_[j];
    for (; r < end && req_initiators_[r] < j; ++r) {
      split(Hop{req_initiators_[r], Leg::reply, j, req_initiators_[r]});
    }
    if (sends() && targets_[j] != kNoTarget) {
      split(Hop{j, Leg::forward, j, targets_[j]});
    }
    for (; r < end; ++r) {
      split(Hop{req_initiators_[r], Leg::reply, j, req_initiators_[r]});
    }
  }

  /// Phase 3 — the wire, in node order: for every live initiator, its
  /// forward, then the reply owed to it (a dead contact owes none). For
  /// each planned hop that `sent(hop)` confirms was sent — the engine
  /// knows whether the message exists and carries data — calls
  /// `on(hop, fate)`; a live initiator without a target yields one
  /// Fate::no_target call instead.
  // ddcverify: hotpath
  template <typename Sent, typename On>
  void for_each_hop(Sent&& sent, On&& on) const {
    for (NodeId i = 0; i < n_; ++i) {
      if (!alive_[i]) continue;
      const NodeId t = targets_[i];
      if (t == kNoTarget) {
        on(Hop{i, Leg::forward, i, i}, Fate::no_target);
        continue;
      }
      if (sends()) {
        const Hop hop{i, Leg::forward, i, t};
        if (sent(hop)) on(hop, fate(hop));
      }
      if (replies() && alive_[t]) {
        const Hop hop{i, Leg::reply, t, i};
        if (sent(hop)) on(hop, fate(hop));
      }
    }
  }

  /// Phase 5 — end-of-round crash draws in node order (`on_crash(i)`
  /// per victim, while round() still names the ending round), then
  /// advances the round counter.
  // ddcverify: hotpath
  template <typename OnCrash>
  void end_round(OnCrash&& on_crash) {
    if (options_.crash_probability > 0.0) {
      for (NodeId i = 0; i < n_; ++i) {
        if (alive_[i] && env_rng_.bernoulli(options_.crash_probability)) {
          alive_[i] = false;
          on_crash(i);
        }
      }
    }
    ++round_;
  }
  void end_round() {
    end_round([](NodeId) {});
  }

  /// Index of a message in a flat 2n arena: slot i is initiator i's
  /// forward, slot n+i the reply addressed to it.
  [[nodiscard]] std::size_t slot(const Hop& hop) const noexcept {
    return hop.leg == Leg::forward ? hop.initiator : n_ + hop.initiator;
  }

  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] NodeId target(NodeId i) const { return targets_[i]; }
  /// The initiators node j owes a reply this round, ascending.
  [[nodiscard]] std::span<const NodeId> requests(NodeId j) const {
    return {req_initiators_.data() + req_offsets_[j],
            req_offsets_[j + 1] - req_offsets_[j]};
  }
  [[nodiscard]] bool sends() const noexcept {
    return options_.pattern != GossipPattern::pull;
  }
  [[nodiscard]] bool replies() const noexcept {
    return options_.pattern != GossipPattern::push;
  }

  [[nodiscard]] bool alive(NodeId i) const {
    DDC_EXPECTS(i < n_);
    return alive_[i];
  }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return static_cast<std::size_t>(
        std::count(alive_.begin(), alive_.end(), true));
  }

 private:
  /// A live target owes its initiator a reply; a crashed contact cannot
  /// answer (reachable only under drop_at_crashed), so that request
  /// simply vanishes.
  [[nodiscard]] bool owes_reply(NodeId i) const {
    return targets_[i] != kNoTarget && alive_[targets_[i]];
  }

  [[nodiscard]] Fate fate(const Hop& hop) const {
    if (!alive_[hop.to]) return Fate::dead_target;
    return drops(hop) ? Fate::lost : Fate::delivered;
  }

  /// The loss verdict: a stateless hash of (seed, round, leg, initiator),
  /// identical wherever it is evaluated.
  [[nodiscard]] bool drops(const Hop& hop) const {
    if (options_.message_loss_probability <= 0.0) return false;
    const std::uint64_t salt = stats::derive_seed(
        round_ * 2 + static_cast<std::uint64_t>(hop.leg), hop.initiator);
    stats::Rng draw = stats::Rng::derive(loss_seed_, salt);
    return draw.bernoulli(options_.message_loss_probability);
  }

  RoundRunnerOptions options_;
  std::size_t n_;
  stats::Rng env_rng_;
  std::uint64_t loss_seed_;
  std::vector<bool> alive_;
  NeighborSelector selector_;
  std::vector<NodeId> targets_;
  // Reply-request CSR: responder j owes replies to
  // req_initiators_[req_offsets_[j] .. req_offsets_[j+1]).
  std::vector<std::size_t> req_offsets_;
  std::vector<NodeId> req_initiators_;
  std::size_t round_ = 0;
};

}  // namespace ddc::sim
