// Event traces of the object engine (the one-shard shard::ShardEngine;
// the suite keeps its historical name, RoundRunnerTrace). Pool runs trace
// the same events (ScaleEquivalence.TracesMatch).
#include <ddc/sim/trace.hpp>

#include <sstream>

#include <gtest/gtest.h>

#include <ddc/shard/shard_engine.hpp>

namespace ddc::sim {
namespace {

using shard::ShardEngine;

/// Same counting node as runner_test, local copy to keep the suites
/// independent.
struct ProbeNode {
  using Message = struct M {
    int tokens = 0;
    [[nodiscard]] bool empty() const noexcept { return tokens == 0; }
  };
  int sent = 0;
  Message prepare_message() {
    ++sent;
    return {1};
  }
  void absorb(std::vector<Message>) {}
};

TEST(TraceRecorder, CountsAndPayloadAccumulate) {
  TraceRecorder rec;
  rec.record({0, TraceEventType::send, 1, 2, 3});
  rec.record({0, TraceEventType::deliver, 1, 2, 3});
  rec.record({1, TraceEventType::send, 2, 1, 4});
  rec.record({1, TraceEventType::loss, 2, 1, 4});
  EXPECT_EQ(rec.count(TraceEventType::send), 2u);
  EXPECT_EQ(rec.count(TraceEventType::loss), 1u);
  EXPECT_EQ(rec.total_payload_sent(), 7u);
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, CsvFormat) {
  TraceRecorder rec;
  rec.record({2, TraceEventType::crash, 5, 5, 0});
  std::ostringstream os;
  rec.write_csv(os);
  EXPECT_EQ(os.str(), "round,event,from,to,payload\n2,crash,5,5,0\n");
}

TEST(TraceRecorder, EventTypeNames) {
  EXPECT_EQ(to_string(TraceEventType::send), "send");
  EXPECT_EQ(to_string(TraceEventType::deliver), "deliver");
  EXPECT_EQ(to_string(TraceEventType::loss), "loss");
  EXPECT_EQ(to_string(TraceEventType::dead_target), "dead_target");
  EXPECT_EQ(to_string(TraceEventType::crash), "crash");
  EXPECT_EQ(to_string(TraceEventType::no_live_neighbor), "no_live_neighbor");
}

TEST(RoundRunnerTrace, RecordsOneSendAndDeliverPerNodePerRound) {
  TraceRecorder rec;
  ShardEngine<ProbeNode> runner(Topology::complete(4),
                                std::vector<ProbeNode>(4));
  runner.set_trace(&rec);
  runner.run_rounds(3);
  EXPECT_EQ(rec.count(TraceEventType::send), 12u);
  EXPECT_EQ(rec.count(TraceEventType::deliver), 12u);
  EXPECT_EQ(rec.count(TraceEventType::loss), 0u);
  EXPECT_EQ(rec.count(TraceEventType::crash), 0u);
}

TEST(RoundRunnerTrace, LossEventsMatchProbability) {
  TraceRecorder rec;
  RoundRunnerOptions options;
  options.message_loss_probability = 0.5;
  options.seed = 9;
  ShardEngine<ProbeNode> runner(Topology::complete(10),
                                std::vector<ProbeNode>(10), options);
  runner.set_trace(&rec);
  runner.run_rounds(100);
  const double loss_rate =
      static_cast<double>(rec.count(TraceEventType::loss)) /
      static_cast<double>(rec.count(TraceEventType::send));
  EXPECT_NEAR(loss_rate, 0.5, 0.05);
  EXPECT_EQ(rec.count(TraceEventType::send),
            rec.count(TraceEventType::deliver) +
                rec.count(TraceEventType::loss));
}

TEST(RoundRunnerTrace, CrashEventsRecordedOnce) {
  TraceRecorder rec;
  RoundRunnerOptions options;
  options.crash_probability = 0.2;
  options.seed = 10;
  ShardEngine<ProbeNode> runner(Topology::complete(12),
                                std::vector<ProbeNode>(12), options);
  runner.set_trace(&rec);
  runner.run_rounds(30);
  EXPECT_EQ(rec.count(TraceEventType::crash), 12u - runner.alive_count());
}

TEST(RoundRunnerTrace, DeadTargetOnlyUnderDropPolicy) {
  for (const auto policy :
       {CrashSendPolicy::avoid_crashed, CrashSendPolicy::drop_at_crashed}) {
    TraceRecorder rec;
    RoundRunnerOptions options;
    options.crash_probability = 0.3;
    options.crash_send_policy = policy;
    options.seed = 11;
    ShardEngine<ProbeNode> runner(Topology::complete(10),
                                  std::vector<ProbeNode>(10), options);
    runner.set_trace(&rec);
    runner.run_rounds(20);
    if (policy == CrashSendPolicy::avoid_crashed) {
      EXPECT_EQ(rec.count(TraceEventType::dead_target), 0u);
    } else {
      EXPECT_GT(rec.count(TraceEventType::dead_target), 0u);
    }
  }
}

TEST(RoundRunnerTrace, PushPullDoublesTraffic) {
  TraceRecorder rec;
  RoundRunnerOptions options;
  options.pattern = GossipPattern::push_pull;
  ShardEngine<ProbeNode> runner(Topology::complete(6),
                                std::vector<ProbeNode>(6), options);
  runner.set_trace(&rec);
  runner.run_rounds(5);
  EXPECT_EQ(rec.count(TraceEventType::send), 2u * 6u * 5u);
}

}  // namespace
}  // namespace ddc::sim
