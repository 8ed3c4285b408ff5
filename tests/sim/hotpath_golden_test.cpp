// Seed-era golden coverage for the optimized hot-path kernels.
//
// The partition/EM/moment-matching rewrites (see DESIGN.md "Hot paths")
// promise BIT-IDENTICAL results to the pre-optimization code. This test
// pins that promise to golden hashes generated from the unoptimized
// kernels: for 3 seeds × {centroid, GM} × {lossless, loss 0.1} it runs a
// full RoundRunner simulation (and, lossless only — the async engine has
// reliable channels by construction — an AsyncRunner one), wire-encodes
// every node's final classification, and compares an FNV-1a digest of all
// the bytes against the recorded golden. A single flipped mantissa bit
// anywhere in any node's summary changes the digest.
//
// To regenerate after an INTENTIONAL output change (one that a human has
// signed off on as semantically justified — never for an "optimization"):
//   DDC_PRINT_GOLDEN=1 ./build/tests/sim_tests
//       --gtest_filter='HotpathGolden.*' 2>&1 | grep GOLDEN
// (one command line; wrapped here for width)
#include <ddc/gossip/runners.hpp>
#include <ddc/wire/serialize.hpp>

#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ddc::sim {
namespace {

/// FNV-1a 64-bit over a byte string.
class Digest {
 public:
  void absorb(const std::vector<std::byte>& bytes) {
    for (const std::byte b : bytes) {
      hash_ ^= static_cast<std::uint64_t>(b);
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setfill('0') << std::setw(16) << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Bimodal 2-D inputs (the workload shape used throughout the benches).
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

template <typename Runner>
std::string digest_nodes(const Runner& runner) {
  Digest digest;
  for (const auto& node : runner.nodes()) {
    digest.absorb(wire::encode_classification(node.classification()));
  }
  return digest.hex();
}

constexpr std::size_t kNodes = 48;
constexpr std::size_t kRounds = 20;
constexpr double kAsyncHorizon = 20.0;

std::string round_digest(const std::string& protocol, std::uint64_t seed,
                         double loss) {
  const auto inputs = bimodal_inputs(kNodes, seed);
  gossip::NetworkConfig net;
  net.k = 2;
  net.seed = seed + 100;
  RoundRunnerOptions options;
  options.seed = seed + 200;
  options.message_loss_probability = loss;
  if (protocol == "gm") {
    auto runner = make_gm_round_runner(Topology::complete(kNodes), inputs, net,
                                       options);
    runner.run_rounds(kRounds);
    return digest_nodes(runner);
  }
  auto runner = make_centroid_round_runner(Topology::complete(kNodes), inputs,
                                           net, options);
  runner.run_rounds(kRounds);
  return digest_nodes(runner);
}

std::string async_digest(const std::string& protocol, std::uint64_t seed) {
  const auto inputs = bimodal_inputs(kNodes, seed);
  gossip::NetworkConfig net;
  net.k = 2;
  net.seed = seed + 100;
  AsyncRunnerOptions options;
  options.seed = seed + 200;
  if (protocol == "gm") {
    auto runner = make_gm_async_runner(Topology::complete(kNodes), inputs, net,
                                       options);
    runner.run_until(kAsyncHorizon);
    return digest_nodes(runner);
  }
  auto runner = make_centroid_async_runner(Topology::complete(kNodes), inputs,
                                           net, options);
  runner.run_until(kAsyncHorizon);
  return digest_nodes(runner);
}

struct GoldenCase {
  std::string engine;  // "round" | "async"
  std::string protocol;
  std::uint64_t seed;
  double loss;
  std::string golden;
};

// Generated from the pre-optimization kernels (naive O(m³) greedy
// partition, per-pair Cholesky EM scoring, temporary-allocating moment
// matching) at the commit that introduced this test. The six lossy round
// digests were re-baselined once, when every round engine moved to the
// shared RoundPlan's hashed loss verdict (the sharded cluster's model)
// in place of a sequential loss stream; each equals the 1-shard
// ShardCluster digest of the same configuration, which that change left
// untouched. The lossless and async digests are the originals.
std::vector<GoldenCase> golden_cases() {
  return {
      {"round", "gm", 1, 0.0, "6055fd077ad9a9ef"},
      {"round", "gm", 2, 0.0, "d8fe69448631ef74"},
      {"round", "gm", 3, 0.0, "f71ad5b5196f8776"},
      {"round", "gm", 1, 0.1, "e964f5f1d0d1ee79"},
      {"round", "gm", 2, 0.1, "6ecb1b1b0a112824"},
      {"round", "gm", 3, 0.1, "1a64b34833972e94"},
      {"round", "centroid", 1, 0.0, "61f655bd7e72c10a"},
      {"round", "centroid", 2, 0.0, "078630f474f0d966"},
      {"round", "centroid", 3, 0.0, "2f6f56671c36f325"},
      {"round", "centroid", 1, 0.1, "5991b00454110fda"},
      {"round", "centroid", 2, 0.1, "f812713cbe2e586e"},
      {"round", "centroid", 3, 0.1, "ed6aae7f873e1efb"},
      {"async", "gm", 1, 0.0, "7a3cddc5f0823b0b"},
      {"async", "gm", 2, 0.0, "c2c60bddeb24deee"},
      {"async", "gm", 3, 0.0, "b28faf546751a506"},
      {"async", "centroid", 1, 0.0, "cc7c36eefda3a84c"},
      {"async", "centroid", 2, 0.0, "33fc89d2ff326cf5"},
      {"async", "centroid", 3, 0.0, "f7e0eb6f6c519a56"},
  };
}

TEST(HotpathGolden, BitIdenticalToSeedEraKernels) {
  const bool print = std::getenv("DDC_PRINT_GOLDEN") != nullptr;
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.engine + "/" + c.protocol + "/seed=" +
                 std::to_string(c.seed) + "/loss=" + std::to_string(c.loss));
    const std::string actual = c.engine == "round"
                                   ? round_digest(c.protocol, c.seed, c.loss)
                                   : async_digest(c.protocol, c.seed);
    if (print) {
      std::ostringstream os;
      os << "GOLDEN " << c.engine << ' ' << c.protocol << ' ' << c.seed << ' '
         << c.loss << ' ' << actual;
      std::cout << os.str() << '\n';
      continue;
    }
    EXPECT_EQ(actual, c.golden);
  }
}

}  // namespace
}  // namespace ddc::sim
