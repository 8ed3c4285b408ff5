// In-process sharded cluster: S ShardEngines over one LoopbackNetwork.
//
// The deterministic harness behind the equivalence matrix tests and
// bench_scale --shards: every engine begins the round, then the driver
// alternates fabric advances with engine polls until all S barriers
// resolve. Because the engines are stepped (never blocking), one thread
// drives the whole cluster without deadlock, and because the loopback
// fabric is deterministic, a run is bit-identical for a fixed
// configuration — including under injected link loss, which the batch
// retransmit protocol must (and does) absorb. The engines share one
// read-only copy of the topology.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include <ddc/common/assert.hpp>
#include <ddc/net/loopback.hpp>
#include <ddc/shard/shard_engine.hpp>
#include <ddc/shard/shard_map.hpp>

namespace ddc::shard {

template <sim::GossipNode Node>
class ShardCluster {
 public:
  using Engine = ShardEngine<Node>;

  /// Splits `all_nodes` (one per topology vertex, global order) into
  /// `num_shards` shards — assigned by options.partitioner — over a
  /// private loopback fabric. With link loss configured in
  /// `net_options`, set a nonzero options.resend_interval_polls (the
  /// default suffices) so dropped batches are retransmitted.
  ShardCluster(sim::Topology topology, std::vector<Node> all_nodes,
               ShardId num_shards, ShardEngineOptions options = {},
               net::LoopbackOptions net_options = {})
      : map_(ShardMap::make(options.partitioner, topology, num_shards)),
        network_(num_shards, net_options) {
    DDC_EXPECTS(topology.num_nodes() == all_nodes.size());
    const auto shared =
        std::make_shared<const sim::Topology>(std::move(topology));
    engines_.reserve(num_shards);
    for (ShardId s = 0; s < num_shards; ++s) {
      std::vector<Node> owned;
      owned.reserve(map_.size(s));
      for (const sim::NodeId i : map_.owned(s)) {
        owned.push_back(std::move(all_nodes[i]));
      }
      engines_.emplace_back(shared, map_, s, std::move(owned),
                            num_shards > 1 ? &network_.endpoint(s) : nullptr,
                            options);
    }
  }

  /// Runs one lockstep round across every shard.
  void run_round() {
    for (Engine& engine : engines_) engine.begin_round();
    std::vector<bool> done(engines_.size(), false);
    std::size_t remaining = engines_.size();
    while (remaining > 0) {
      network_.advance();
      for (std::size_t s = 0; s < engines_.size(); ++s) {
        if (done[s]) {
          // A finished shard must keep servicing the exchange: a peer
          // whose ack was lost retransmits, and only this shard can
          // re-ack (the deadlock otherwise is real — loss on the last
          // ack of a round would wedge the cluster).
          engines_[s].service();
        } else if (engines_[s].try_complete_round()) {
          done[s] = true;
          --remaining;
        }
      }
    }
  }

  void run_rounds(std::size_t count) {
    for (std::size_t r = 0; r < count; ++r) run_round();
  }

  [[nodiscard]] const ShardMap& map() const noexcept { return map_; }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return engines_.size();
  }
  [[nodiscard]] Engine& engine(ShardId s) { return engines_.at(s); }
  [[nodiscard]] const Engine& engine(ShardId s) const {
    return engines_.at(s);
  }
  [[nodiscard]] net::LoopbackNetwork& network() noexcept { return network_; }

  /// The node object behind global id `i`, wherever it lives.
  [[nodiscard]] const Node& node(sim::NodeId i) const {
    return engines_[map_.shard_of(i)].nodes()[map_.local_index(i)];
  }

 private:
  ShardMap map_;
  net::LoopbackNetwork network_;
  std::vector<Engine> engines_;
};

}  // namespace ddc::shard
