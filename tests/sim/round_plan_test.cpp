// RoundPlan::plan against the one-loop form it replaced, and each
// node's receive order against the delivery walk.
//
// plan() splits each uniform pick into a parallel eligible-count pass, a
// sequential draw pass and a parallel map pass, and skips the
// live-neighbor scan while nobody has crashed. The reference below is the
// old schedule: NeighborSelector::pick for every live node in node order,
// then the crash draws, all from one copy of the plan's environment
// stream. Over every selection, pattern, crash-send policy, thread count,
// crash probability and loss probability, both must agree round after
// round on targets, contacts, reply requests, alive flags and the
// environment stream's next draw.
//
// for_each_receive() is every node's inbox, read from the plan. The
// reference is the walk it replaced: for_each_hop() in node order, each
// message appended to its receiver's list. Both must yield every node
// the same hops with the same fates in the same order.
#include <ddc/sim/round_plan.hpp>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/exec/thread_pool.hpp>

namespace ddc::sim {
namespace {

/// The sequential plan: one pick per live node, in node order.
class ReferencePlan {
 public:
  ReferencePlan(const RoundRunnerOptions& options, std::size_t num_nodes,
                const stats::Rng& env)
      : options_(options),
        env_(env),
        alive_(num_nodes, true),
        selector_(options.selection, num_nodes),
        targets_(num_nodes, kNoTarget) {}

  void plan(const Topology& topology) {
    const bool avoid =
        options_.crash_send_policy == CrashSendPolicy::avoid_crashed;
    for (NodeId i = 0; i < targets_.size(); ++i) {
      targets_[i] = kNoTarget;
      if (!alive_[i]) continue;
      targets_[i] =
          selector_.pick(topology, i, alive_, avoid, env_).value_or(kNoTarget);
    }
  }

  /// The initiators that chose node j, ascending.
  [[nodiscard]] std::vector<NodeId> contacts(NodeId j) const {
    std::vector<NodeId> out;
    for (NodeId i = 0; i < targets_.size(); ++i) {
      if (targets_[i] == j) out.push_back(i);
    }
    return out;
  }

  /// The initiators a live responder j owes a reply, ascending.
  [[nodiscard]] std::vector<NodeId> requests(NodeId j) const {
    if (options_.pattern == GossipPattern::push || !alive_[j]) return {};
    return contacts(j);
  }

  void end_round() {
    if (options_.crash_probability <= 0.0) return;
    for (NodeId i = 0; i < alive_.size(); ++i) {
      if (alive_[i] && env_.bernoulli(options_.crash_probability)) {
        alive_[i] = false;
      }
    }
  }

  [[nodiscard]] NodeId target(NodeId i) const { return targets_[i]; }
  [[nodiscard]] bool alive(NodeId i) const { return alive_[i]; }
  [[nodiscard]] const stats::Rng& environment() const { return env_; }

 private:
  RoundRunnerOptions options_;
  stats::Rng env_;
  std::vector<bool> alive_;
  NeighborSelector selector_;
  std::vector<NodeId> targets_;
};

/// The next 64-bit output of a copy of `rng`: equal for two streams at
/// the same position.
std::uint64_t next_draw(const stats::Rng& rng) {
  stats::Rng copy = rng;
  return copy.engine()();
}

/// One message as a receiver sees it.
struct Received {
  Hop hop;
  Fate fate;

  bool operator==(const Received&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Received& r) {
  return os << "{initiator " << r.hop.initiator << " leg "
            << static_cast<int>(r.hop.leg) << " " << r.hop.from << "->"
            << r.hop.to << " fate " << static_cast<int>(r.fate) << "}";
}

/// A stand-in for the storage's "was this message sent": a fixed,
/// irregular subset of the hops, so the receive side must consult it
/// exactly as the walk does.
bool sent(const Hop& hop) {
  return (hop.initiator * 7 + static_cast<std::size_t>(hop.leg) * 3) % 11 != 0;
}

/// Every node's inbox as for_each_receive() reads it, against the old
/// delivery walk: for_each_hop() in node order, each hop appended to its
/// receiver's list. Counts the messages read per Fate into `fates`.
void expect_receive_matches_walk(const RoundPlan& plan, std::size_t n,
                                 std::size_t round,
                                 std::array<std::size_t, 4>& fates) {
  std::vector<std::vector<Received>> walked(n);
  plan.for_each_hop(sent, [&](const Hop& hop, Fate fate) {
    if (fate != Fate::no_target) walked[hop.to].push_back({hop, fate});
  });
  for (NodeId j = 0; j < n; ++j) {
    std::vector<Received> read;
    plan.for_each_receive(j, sent, [&](const Hop& hop, Fate fate) {
      read.push_back({hop, fate});
      ++fates[static_cast<std::size_t>(fate)];
    });
    ASSERT_EQ(read, walked[j]) << "node " << j << " round " << round;
  }
}

TEST(RoundPlan, ParallelPlanMatchesSequentialPicks) {
  constexpr std::size_t kNodes = 120;
  constexpr std::size_t kRounds = 30;
  stats::Rng setup(4242);
  // Sparse enough that low-degree nodes lose every live neighbor.
  const Topology topology = Topology::erdos_renyi(kNodes, 0.04, setup);
  std::size_t no_target = 0;
  std::array<std::size_t, 4> fates{};
  for (const NeighborSelection selection :
       {NeighborSelection::uniform_random, NeighborSelection::round_robin}) {
    for (const GossipPattern pattern :
         {GossipPattern::push, GossipPattern::pull,
          GossipPattern::push_pull}) {
      for (const CrashSendPolicy policy :
           {CrashSendPolicy::avoid_crashed,
            CrashSendPolicy::drop_at_crashed}) {
        for (const std::size_t parallelism : {1, 2, 4}) {
          for (const double crash : {0.0, 0.1}) {
            for (const double loss : {0.0, 0.3}) {
              SCOPED_TRACE(::testing::Message()
                           << "selection " << static_cast<int>(selection)
                           << " pattern " << static_cast<int>(pattern)
                           << " policy " << static_cast<int>(policy)
                           << " parallelism " << parallelism << " crash "
                           << crash << " loss " << loss);
              RoundRunnerOptions options;
              options.seed = 99;
              options.selection = selection;
              options.pattern = pattern;
              options.crash_send_policy = policy;
              options.crash_probability = crash;
              options.message_loss_probability = loss;
              options.parallelism = parallelism;
              const std::unique_ptr<exec::ThreadPool> pool =
                  exec::ThreadPool::for_parallelism(parallelism);
              RoundPlan plan(options, kNodes);
              ReferencePlan reference(options, kNodes, plan.environment());
              for (std::size_t round = 0; round < kRounds; ++round) {
                plan.plan(topology, pool.get());
                reference.plan(topology);
                for (NodeId i = 0; i < kNodes; ++i) {
                  ASSERT_EQ(plan.target(i), reference.target(i))
                      << "node " << i << " round " << round;
                  const std::span<const NodeId> from = plan.contacts(i);
                  ASSERT_EQ(std::vector<NodeId>(from.begin(), from.end()),
                            reference.contacts(i))
                      << "node " << i << " round " << round;
                  const std::span<const NodeId> got = plan.requests(i);
                  ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()),
                            reference.requests(i))
                      << "node " << i << " round " << round;
                  no_target +=
                      plan.alive(i) && plan.target(i) == kNoTarget ? 1 : 0;
                }
                ASSERT_EQ(next_draw(plan.environment()),
                          next_draw(reference.environment()))
                    << "round " << round;
                expect_receive_matches_walk(plan, kNodes, round, fates);
                plan.end_round();
                reference.end_round();
                std::vector<bool> flags(kNodes);
                for (NodeId i = 0; i < kNodes; ++i) {
                  const bool alive = plan.alive(i);
                  ASSERT_EQ(alive, reference.alive(i)) << "node " << i;
                  flags[i] = alive;
                }
                ASSERT_EQ(plan.alive_count(),
                          static_cast<std::size_t>(
                              std::count(flags.begin(), flags.end(), true)))
                    << "round " << round;
                ASSERT_EQ(next_draw(plan.environment()),
                          next_draw(reference.environment()))
                    << "round " << round;
              }
              if (crash > 0.0) {
                EXPECT_LT(plan.alive_count(), kNodes);
              }
            }
          }
        }
      }
    }
  }
  // The walk past crashed neighbors ran into empty neighborhoods too.
  EXPECT_GT(no_target, 0u);
  // Every message fate was compared, not only deliveries.
  EXPECT_GT(fates[static_cast<std::size_t>(Fate::delivered)], 0u);
  EXPECT_GT(fates[static_cast<std::size_t>(Fate::dead_target)], 0u);
  EXPECT_GT(fates[static_cast<std::size_t>(Fate::lost)], 0u);
}

}  // namespace
}  // namespace ddc::sim
