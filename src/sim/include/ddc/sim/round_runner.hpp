// Synchronous round-based simulation driver.
//
// Reproduces the paper's measurement methodology (Section 5.3): "we
// measure progress in rounds, where in each round each node sends a
// classification to one neighbor. Nodes that receive classifications from
// multiple neighbors accumulate all the received collections and run EM
// once for the entire set." Crash failures follow Figure 4's model: after
// each round every live node crashes independently with fixed probability.
//
// Execution model — a round is five phases, scheduled by a shared
// sim::RoundPlan (round_plan.hpp) that owns every environment draw:
//   1. plan     (sequential)  neighbor selection, reply requests
//   2. prepare  (parallel)    every sender/responder splits its state
//   3. deliver  (sequential)  traces, loss verdicts, inbox fill, node order
//   4. absorb   (parallel)    every receiver unions its inbox, runs EM once
//   5. crash    (sequential)  end-of-round crash draws
//
// This engine keeps only the node objects and their message slots.
// Phases 2 and 4 touch only node-local state (each node's classifier and
// its own RNG stream), so they fan out across a thread pool when
// `RoundRunnerOptions::parallelism > 1` — with results BIT-IDENTICAL to
// `parallelism = 1`, because which thread runs a node never changes what
// that node computes, and every environment draw stays on the sequential
// phases. See DESIGN.md ("Parallel simulation engine") for the argument.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/round_plan.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/sim/trace.hpp>

namespace ddc::sim {

/// Drives one node object per topology vertex through synchronous gossip
/// rounds. The runner owns the nodes; experiments inspect them between
/// rounds through `nodes()`.
template <GossipNode Node>
class RoundRunner {
 public:
  using Message = typename Node::Message;

  /// Takes ownership of `nodes` (one per topology vertex).
  RoundRunner(Topology topology, std::vector<Node> nodes,
              RoundRunnerOptions options = {})
      : topology_(std::move(topology)),
        nodes_(std::move(nodes)),
        plan_(options, nodes_.size()),
        slots_(2 * nodes_.size()),
        inbox_(nodes_.size()),
        pool_(exec::ThreadPool::for_parallelism(options.parallelism)) {
    DDC_EXPECTS(nodes_.size() == topology_.num_nodes());
  }

  /// Executes one round: every live node contacts one neighbor (push,
  /// pull, or push-pull); every live node then absorbs everything it
  /// received in a single batch; finally crash draws are applied.
  void run_round() {
    plan_.plan(topology_);
    timed_phase(timings_.prepare_seconds, [&] { prepare_messages(); });
    deliver_messages();
    timed_phase(timings_.absorb_seconds, [&] { absorb_inboxes(); });
    plan_.end_round(
        [&](NodeId i) { trace(TraceEventType::crash, i, i, 0); });
  }

  /// Executes `count` rounds.
  void run_rounds(std::size_t count) {
    for (std::size_t r = 0; r < count; ++r) run_round();
  }

  [[nodiscard]] std::size_t round() const noexcept { return plan_.round(); }
  [[nodiscard]] const RoundPhaseTimings& timings() const noexcept {
    return timings_;
  }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::vector<Node>& nodes() noexcept { return nodes_; }

  /// Attaches (or detaches, with nullptr) an execution trace recorder.
  /// The recorder is borrowed and must outlive the runs it observes.
  void set_trace(TraceRecorder* recorder) noexcept { trace_ = recorder; }

  [[nodiscard]] bool alive(NodeId i) const { return plan_.alive(i); }
  [[nodiscard]] std::size_t alive_count() const noexcept {
    return plan_.alive_count();
  }

 private:
  /// Phase 2 — node-local splits, parallel over nodes, each node in the
  /// plan's pinned split order; every message lands in its own slot.
  void prepare_messages() {
    for (std::optional<Message>& slot : slots_) slot.reset();
    exec::parallel_for(pool_.get(), nodes_.size(), [&](std::size_t j) {
      plan_.for_each_split(j, [&](const Hop& hop) {
        slots_[plan_.slot(hop)] = nodes_[j].prepare_message();
      });
    });
  }

  /// Phase 3 — the plan's delivery walk: records the trace events and
  /// fills the inboxes in node order.
  void deliver_messages() {
    for (std::vector<Message>& inbox : inbox_) inbox.clear();
    plan_.for_each_hop(
        [&](const Hop& hop) {
          const std::optional<Message>& msg = slots_[plan_.slot(hop)];
          return msg && !msg->empty();
        },
        [&](const Hop& hop, Fate fate) {
          if (fate == Fate::no_target) {
            trace(TraceEventType::no_live_neighbor, hop.from, hop.to, 0);
            return;
          }
          Message& msg = *slots_[plan_.slot(hop)];
          const std::size_t payload = payload_units(msg);
          trace(TraceEventType::send, hop.from, hop.to, payload);
          if (fate == Fate::dead_target) {
            trace(TraceEventType::dead_target, hop.from, hop.to, payload);
          } else if (fate == Fate::lost) {
            trace(TraceEventType::loss, hop.from, hop.to, payload);
          } else {
            trace(TraceEventType::deliver, hop.from, hop.to, payload);
            inbox_[hop.to].push_back(std::move(msg));
          }
        });
  }

  /// Phase 4 — node-local batch absorption, parallel over nodes (the
  /// per-receiver EM run is the round's dominant cost).
  void absorb_inboxes() {
    exec::parallel_for(pool_.get(), nodes_.size(), [&](std::size_t i) {
      if (plan_.alive(i) && !inbox_[i].empty()) {
        nodes_[i].absorb(std::move(inbox_[i]));
      }
    });
  }

  /// Payload size proxy: collections for classification messages, 1 for
  /// scalar protocols like push-sum.
  [[nodiscard]] static std::size_t payload_units(const Message& msg) {
    if constexpr (requires { msg.size(); }) {
      return msg.size();
    } else {
      return 1;
    }
  }

  void trace(TraceEventType type, NodeId from, NodeId to, std::size_t payload) {
    if (trace_ != nullptr) {
      trace_->record({plan_.round(), type, from, to, payload});
    }
  }

  Topology topology_;
  std::vector<Node> nodes_;
  RoundPlan plan_;
  // Per-round scratch, kept across rounds to avoid reallocating. Phase 2
  // writes slots_[plan_.slot(hop)] only from the task of the node that
  // prepares that message; phase 4 consumes inbox_[i] from the task that
  // owns i.
  std::vector<std::optional<Message>> slots_;
  std::vector<std::vector<Message>> inbox_;
  std::unique_ptr<exec::ThreadPool> pool_;
  RoundPhaseTimings timings_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace ddc::sim
