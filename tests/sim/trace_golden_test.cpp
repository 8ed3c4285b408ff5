// Golden test pinning the TraceRecorder CSV export byte for byte — the
// format `ddcsim --trace` emits and external analysis scripts parse.
//
// The run must be fully deterministic across platforms, so it uses
// round-robin selection (consumes no randomness; std distributions are
// implementation-defined) and no loss or crashes.
#include <ddc/sim/trace.hpp>

#include <sstream>

#include <gtest/gtest.h>

#include <ddc/shard/shard_engine.hpp>

namespace ddc::sim {
namespace {

using shard::ShardEngine;

struct TokenNode {
  using Message = struct M {
    int tokens = 0;
    [[nodiscard]] bool empty() const noexcept { return tokens == 0; }
  };
  Message prepare_message() { return {1}; }
  void absorb(std::vector<Message>) {}
};

TEST(TraceGolden, CsvExportIsPinned) {
  TraceRecorder rec;
  RoundRunnerOptions options;
  options.selection = NeighborSelection::round_robin;
  ShardEngine<TokenNode> runner(Topology::complete(3),
                                std::vector<TokenNode>(3), options);
  runner.set_trace(&rec);
  runner.run_rounds(2);

  std::ostringstream os;
  rec.write_csv(os);
  // Round-robin on the complete 3-graph: round 0 sends along each node's
  // first neighbor (0→1, 1→0, 2→0), round 1 along the second
  // (0→2, 1→2, 2→1); each send is delivered immediately after.
  const std::string expected =
      "round,event,from,to,payload\n"
      "0,send,0,1,1\n"
      "0,deliver,0,1,1\n"
      "0,send,1,0,1\n"
      "0,deliver,1,0,1\n"
      "0,send,2,0,1\n"
      "0,deliver,2,0,1\n"
      "1,send,0,2,1\n"
      "1,deliver,0,2,1\n"
      "1,send,1,2,1\n"
      "1,deliver,1,2,1\n"
      "1,send,2,1,1\n"
      "1,deliver,2,1,1\n";
  EXPECT_EQ(os.str(), expected);
}

}  // namespace
}  // namespace ddc::sim
