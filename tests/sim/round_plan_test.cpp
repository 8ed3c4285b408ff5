// RoundPlan::plan against the one-loop form it replaced.
//
// plan() splits each uniform pick into a parallel eligible-count pass, a
// sequential draw pass and a parallel map pass, and skips the
// live-neighbor scan while nobody has crashed. The reference below is the
// old schedule: NeighborSelector::pick for every live node in node order,
// then the crash draws, all from one copy of the plan's environment
// stream. Over every selection, pattern, crash-send policy, thread count
// and crash probability, both must agree round after round on targets,
// reply requests, alive flags and the environment stream's next draw.
#include <ddc/sim/round_plan.hpp>

#include <algorithm>
#include <cstdint>
#include <memory>
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

  /// The initiators a live responder j owes a reply, ascending.
  [[nodiscard]] std::vector<NodeId> requests(NodeId j) const {
    std::vector<NodeId> out;
    if (options_.pattern == GossipPattern::push || !alive_[j]) return out;
    for (NodeId i = 0; i < targets_.size(); ++i) {
      if (targets_[i] == j) out.push_back(i);
    }
    return out;
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

TEST(RoundPlan, ParallelPlanMatchesSequentialPicks) {
  constexpr std::size_t kNodes = 120;
  constexpr std::size_t kRounds = 30;
  stats::Rng setup(4242);
  // Sparse enough that low-degree nodes lose every live neighbor.
  const Topology topology = Topology::erdos_renyi(kNodes, 0.04, setup);
  std::size_t no_target = 0;
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
            SCOPED_TRACE(::testing::Message()
                         << "selection " << static_cast<int>(selection)
                         << " pattern " << static_cast<int>(pattern)
                         << " policy " << static_cast<int>(policy)
                         << " parallelism " << parallelism << " crash "
                         << crash);
            RoundRunnerOptions options;
            options.seed = 99;
            options.selection = selection;
            options.pattern = pattern;
            options.crash_send_policy = policy;
            options.crash_probability = crash;
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
  // The walk past crashed neighbors ran into empty neighborhoods too.
  EXPECT_GT(no_target, 0u);
}

}  // namespace
}  // namespace ddc::sim
