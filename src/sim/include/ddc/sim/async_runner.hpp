// Asynchronous event-driven simulation driver.
//
// The convergence theorem (Section 6) is proved for fully asynchronous
// executions: arbitrary finite message delays, no rounds, no common clock.
// This runner realizes that model on top of the discrete-event scheduler —
// every node gossips on its own jittered local timer and every message is
// delivered after an independent random delay. Integration tests use it to
// check that all-node agreement does not secretly depend on round
// synchrony.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/sim/event_queue.hpp>
#include <ddc/sim/gossip_node.hpp>
#include <ddc/sim/neighbor_selection.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace ddc::sim {

/// Configuration of an asynchronous run. Selection, pattern and seed come
/// from the shared options layer (CommonRunnerOptions).
struct AsyncRunnerOptions : CommonRunnerOptions {
  /// Mean interval between a node's gossip emissions; actual intervals are
  /// uniform in [0.5, 1.5]× this, independently per node per tick.
  Time mean_tick_interval = 1.0;
  /// Message delays are uniform in [min_delay, max_delay].
  Time min_delay = 0.05;
  Time max_delay = 2.0;
};

/// Drives one node object per topology vertex asynchronously. Channels are
/// reliable (every message scheduled is eventually delivered), unordered
/// (delays may reorder messages), and loss-free — the paper's Section 3.1
/// channel model.
template <GossipNode Node>
class AsyncRunner {
 public:
  using Message = typename Node::Message;

  AsyncRunner(Topology topology, std::vector<Node> nodes,
              AsyncRunnerOptions options = {})
      : topology_(std::move(topology)),
        nodes_(std::move(nodes)),
        options_(options),
        env_rng_(stats::Rng::derive(options.seed, 0x4153594e43ULL)),
        selector_(options.selection, nodes_.size()),
        all_alive_(nodes_.size(), true) {
    DDC_EXPECTS(nodes_.size() == topology_.num_nodes());
    DDC_EXPECTS(options_.mean_tick_interval > 0.0);
    DDC_EXPECTS(options_.min_delay >= 0.0 &&
                options_.min_delay <= options_.max_delay);
    for (NodeId i = 0; i < nodes_.size(); ++i) schedule_tick(i);
  }

  // The scheduler holds closures that capture `this`.
  AsyncRunner(const AsyncRunner&) = delete;
  AsyncRunner& operator=(const AsyncRunner&) = delete;

  /// Runs the simulation until simulated time `until`.
  void run_until(Time until) { queue_.run_until(until); }

  [[nodiscard]] Time now() const noexcept { return queue_.now(); }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_delivered_;
  }
  [[nodiscard]] std::uint64_t pull_requests_delivered() const noexcept {
    return pull_requests_delivered_;
  }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::vector<Node>& nodes() noexcept { return nodes_; }

 private:
  void schedule_tick(NodeId i) {
    const Time interval =
        options_.mean_tick_interval * env_rng_.uniform(0.5, 1.5);
    queue_.schedule_after(interval, [this, i] {
      emit(i);
      schedule_tick(i);
    });
  }

  void emit(NodeId i) {
    const NodeId target = select_neighbor(i);
    switch (options_.pattern) {
      case GossipPattern::push:
        send_data(i, target);
        break;
      case GossipPattern::pull:
        send_pull_request(i, target);
        break;
      case GossipPattern::push_pull:
        send_data(i, target);
        send_pull_request(i, target);
        break;
    }
  }

  [[nodiscard]] Time random_delay() {
    return options_.min_delay == options_.max_delay
               ? options_.min_delay
               : env_rng_.uniform(options_.min_delay, options_.max_delay);
  }

  /// Ships half of `from`'s state to `to` after a channel delay.
  void send_data(NodeId from, NodeId to) {
    Message msg = nodes_[from].prepare_message();
    if (msg.empty()) return;
    queue_.schedule_after(random_delay(),
                          [this, to, m = std::move(msg)]() mutable {
                            ++messages_delivered_;
                            std::vector<Message> batch;
                            batch.push_back(std::move(m));
                            nodes_[to].absorb(std::move(batch));
                          });
  }

  /// Delivers a pull request to `to`, which then ships half of its state
  /// back to `from` (two channel delays end to end).
  void send_pull_request(NodeId from, NodeId to) {
    queue_.schedule_after(random_delay(), [this, from, to] {
      ++pull_requests_delivered_;
      send_data(to, from);
    });
  }

  [[nodiscard]] NodeId select_neighbor(NodeId i) {
    // This engine has no crashes, so every neighbor is eligible and the
    // selector always yields a target.
    return *selector_.pick(topology_, i, all_alive_, /*avoid=*/false,
                           env_rng_);
  }

  Topology topology_;
  std::vector<Node> nodes_;
  AsyncRunnerOptions options_;
  stats::Rng env_rng_;
  NeighborSelector selector_;
  std::vector<bool> all_alive_;
  EventQueue queue_;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t pull_requests_delivered_ = 0;
};

}  // namespace ddc::sim
