// RoundPlan — everything in a synchronous round that is not node state.
//
// The paper measures progress in rounds (Section 5.3): in each round every
// live node sends to one neighbor, and each receiver merges everything it
// got in one batch; after the round every live node crashes independently
// with fixed probability (Fig. 4). One engine runs the round,
// shard::ShardEngine, over one shard's node objects or, on one shard,
// over struct-of-arrays pools; its node storage decides only where node
// state and messages live. The schedule is written once, here:
//
//   plan()            phase 1: every live node's target (eligible counts
//                     and the draw-to-neighbor map in parallel, the
//                     selection draws in node order), then the contact
//                     CSR (who chose whom);
//   for_each_split()  phase 2: one node's split order — replies to
//                     lower-indexed initiators, its own send, replies to
//                     higher-indexed initiators;
//   for_each_receive() phase 3, read per receiver: its inbox, with the
//                     dead-target rule and the loss verdict applied;
//   end_round()       phase 5: crash draws, then the round counter.
//
// Phases 2 and 4 (prepare, absorb) are the storage's own; they touch only
// node-local state, so they may fan out across threads. for_each_hop()
// walks every delivery in node order (shard senders, tracers).
//
// A message is named by a Hop: its initiator and its leg (the initiator's
// forward, or the reply its contact owes it). A live node initiates at
// most one exchange per round, so (initiator, leg) is unique within a
// round, and both storages map it to one message slot.
//
// Determinism. Selection and crash draws come from one environment
// stream consumed sequentially, in node order — so thread count never
// changes them, and every shard of a cluster replays them identically
// over all n nodes. Only the draws themselves are sequential: plan()'s
// draw pass and end_round()'s crash pass. Counting each node's eligible
// neighbors before the draws, and mapping each drawn index to a neighbor
// after them, read only the round's alive flags and write only node i's
// own entries, so those passes run in parallel. Loss is not drawn from
// a stream: each verdict is a pure function of (seed, round, leg,
// initiator). It therefore does not depend on which messages turned out
// empty, on delivery order, or on which shard evaluates it, and a lossy
// object, pool or cluster run of one configuration is the same run bit
// for bit. Lossless runs never evaluate it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/common/timing.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
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
  /// Worker threads for the plan's per-node passes and the
  /// prepare/absorb phases: 1 runs fully
  /// sequentially (no pool is even created), 0 means one per hardware
  /// thread. Any value produces bit-identical results.
  std::size_t parallelism = 1;
};

/// Accumulated wall-clock of the round phases, measured once per round
/// around the whole phase (two clock reads each — negligible next to the
/// phase bodies). Feeds `ddcsim --timing`.
struct RoundPhaseTimings {
  double plan_seconds = 0.0;
  double prepare_seconds = 0.0;
  double deliver_seconds = 0.0;
  double absorb_seconds = 0.0;
};

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
  bool operator==(const Hop&) const = default;
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
        alive_count_(num_nodes),
        selector_(options.selection, num_nodes),
        targets_(num_nodes, kNoTarget),
        contact_offsets_(num_nodes + 1, 0),
        contacts_(num_nodes, 0) {
    DDC_EXPECTS(options_.crash_probability >= 0.0 &&
                options_.crash_probability <= 1.0);
    DDC_EXPECTS(options_.message_loss_probability >= 0.0 &&
                options_.message_loss_probability <= 1.0);
  }

  /// Phase 1 — environment draws only. Picks every live node's gossip
  /// target and lowers who chose whom into a CSR (initiators ascending
  /// per contact). Consumes
  /// exactly the selection draws, in node order, regardless of message
  /// contents or thread count. Three passes over targets_, which holds
  /// eligible counts, then drawn indices, then targets: the count and map
  /// passes touch only node i's entry (and round-robin cursor), so they
  /// fan out over `pool` (null runs them sequentially); only the draw
  /// pass walks the nodes in order.
  // ddcverify: hotpath
  void plan(const Topology& topology, exec::ThreadPool* pool) {
    DDC_EXPECTS(topology.num_nodes() == n_);
    // While nobody has crashed, avoiding the crashed changes nothing, and
    // a node's eligible neighbors are all of them: O(1) count and map.
    const bool avoid =
        options_.crash_send_policy == CrashSendPolicy::avoid_crashed &&
        alive_count_ < n_;
    if (!selector_.draws()) {
      for_each_node(pool, [&](NodeId i) {
        targets_[i] = kNoTarget;
        if (alive_[i]) {
          targets_[i] = selector_.next_in_turn(topology, i, alive_, avoid)
                            .value_or(kNoTarget);
        }
      });
    } else {
      for_each_node(pool, [&](NodeId i) {
        targets_[i] =
            alive_[i] ? selector_.eligible(topology, i, alive_, avoid) : 0;
      });
      for (NodeId i = 0; i < n_; ++i) {
        targets_[i] = targets_[i] == 0 ? kNoTarget
                                       : env_rng_.uniform_index(targets_[i]);
      }
      for_each_node(pool, [&](NodeId i) {
        if (targets_[i] != kNoTarget) {
          targets_[i] =
              selector_.nth_eligible(topology, i, alive_, avoid, targets_[i]);
        }
      });
    }
    // Counting sort: offsets[t] first counts t's contacts, then holds its
    // END after an inclusive prefix sum; placing initiators in descending
    // order walks each END back to its start.
    std::vector<std::size_t>& offsets = contact_offsets_;
    std::fill(offsets.begin(), offsets.end(), 0);
    for (NodeId i = 0; i < n_; ++i) {
      if (targets_[i] != kNoTarget) ++offsets[targets_[i]];
    }
    for (NodeId j = 1; j <= n_; ++j) offsets[j] += offsets[j - 1];
    for (NodeId i = n_; i-- > 0;) {
      if (targets_[i] != kNoTarget) contacts_[--offsets[targets_[i]]] = i;
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
    const std::span<const NodeId> owed = requests(j);
    std::size_t r = 0;
    for (; r < owed.size() && owed[r] < j; ++r) {
      split(Hop{owed[r], Leg::reply, j, owed[r]});
    }
    if (sends() && targets_[j] != kNoTarget) {
      split(Hop{j, Leg::forward, j, targets_[j]});
    }
    for (; r < owed.size(); ++r) {
      split(Hop{owed[r], Leg::reply, j, owed[r]});
    }
  }

  /// Phase 3 — node j's inbox in for_each_hop's order: forwards from
  /// lower-indexed contacts, the reply owed to j, forwards from
  /// higher-indexed contacts; `on(hop, fate)` for each hop that
  /// `sent(hop)` confirms. Reads only the plan, so absorb may fan out.
  // ddcverify: hotpath
  template <typename Sent, typename On>
  void for_each_receive(NodeId j, Sent&& sent, On&& on) const {
    const std::span<const NodeId> from =
        sends() ? contacts(j) : std::span<const NodeId>{};
    const auto receive = [&](const Hop& hop) {
      if (sent(hop)) on(hop, fate(hop));
    };
    std::size_t r = 0;
    for (; r < from.size() && from[r] < j; ++r) {
      receive(Hop{from[r], Leg::forward, from[r], j});
    }
    if (replies() && owes_reply(j)) receive(Hop{j, Leg::reply, targets_[j], j});
    for (; r < from.size(); ++r) {
      receive(Hop{from[r], Leg::forward, from[r], j});
    }
  }

  /// Every delivery in node order: for every live initiator, its
  /// forward, then the reply owed to it (a dead contact owes none), each
  /// passed to `on(hop, fate)` if `sent(hop)`; a live initiator without
  /// a target yields one Fate::no_target call instead.
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
          --alive_count_;
          on_crash(i);
        }
      }
    }
    ++round_;
  }
  void end_round() {
    end_round([](NodeId) {});
  }

  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] NodeId target(NodeId i) const { return targets_[i]; }
  /// The live initiators that chose node j this round, ascending.
  [[nodiscard]] std::span<const NodeId> contacts(NodeId j) const {
    return {contacts_.data() + contact_offsets_[j],
            contact_offsets_[j + 1] - contact_offsets_[j]};
  }
  /// The initiators node j owes a reply: its contacts, if j is live and
  /// the pattern pulls.
  [[nodiscard]] std::span<const NodeId> requests(NodeId j) const {
    if (!replies() || !alive_[j]) return {};
    return contacts(j);
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
    return alive_count_;
  }
  /// The environment stream (selection and crash draws) at its current
  /// position.
  [[nodiscard]] const stats::Rng& environment() const noexcept {
    return env_rng_;
  }

 private:
  /// Runs `body(i)` for every node, chunked over `pool`; a body touches
  /// only node i's state.
  template <typename Body>
  void for_each_node(exec::ThreadPool* pool, Body&& body) const {
    exec::parallel_for_chunks(
        pool, n_, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (NodeId i = begin; i < end; ++i) body(i);
        });
  }

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
  std::size_t alive_count_;
  NeighborSelector selector_;
  std::vector<NodeId> targets_;
  // Contact CSR: the live initiators that chose node j are
  // contacts_[contact_offsets_[j] .. contact_offsets_[j+1]).
  std::vector<std::size_t> contact_offsets_;
  std::vector<NodeId> contacts_;
  std::size_t round_ = 0;
};

}  // namespace ddc::sim
