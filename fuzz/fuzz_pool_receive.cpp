// Differential fuzz harness for the SoA engine's pool receive.
//
// The SoA engine (the default for centroid and GM) receives with
// CentroidScaleProtocol::receive_rows / GmScaleProtocol::receive_rows on
// packed pool rows; the object engine receives with
// GenericClassifier::receive. The input bytes describe a sequence of
// receives — protocol, dimension (1..5, so d = 5 takes the kernels'
// dynamic path), k and a coarse weight resolution, then per receive the
// receiver's own collections and its inbox — and every collection
// chooses its quanta, a mean (grid values with exact ties, small values,
// extreme magnitudes, or a copy of the previous mean) and, for GM, a
// covariance (all-zero, SPD, near-singular rank one, a copy, or an SPD
// scaled to an extreme magnitude). Each receive runs both ways, the
// pool side on one PoolScratch reused across the whole input, and the
// oracle is:
//
//   * the same outcome: both throw the same message, or neither throws;
//   * the same collections bit for bit (count, quanta, every summary
//     double by bit pattern, as tests/sim/soa_pool_receive_test.cpp
//     compares them);
//   * exact quanta conservation: the results' quanta sum to the inputs'.
//
// Any difference aborts with the receive's description.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include <ddc/gossip/scale.hpp>

#include "fuzz_input.hpp"

namespace {

using ddc_fuzz::FuzzInput;
namespace gossip = ddc::gossip;
namespace core = ddc::core;
namespace linalg = ddc::linalg;

constexpr std::size_t kMaxReceives = 8;
constexpr double kMagnitudes[] = {1e-300, 1e-150, 1e-8, 1.0,
                                  1e8,    1e150,  1e300};

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "fuzz_pool_receive: %s\n", what.c_str());
  std::abort();
}

double extreme(FuzzInput& in) {
  const std::uint8_t b = in.u8();
  const double magnitude = kMagnitudes[(b >> 1) % std::size(kMagnitudes)];
  return (b & 1) != 0 ? -magnitude : magnitude;
}

/// One mean: grid values (ties), small values, extremes, or a copy.
linalg::Vector fuzz_mean(FuzzInput& in, std::size_t d,
                         const linalg::Vector* previous) {
  const std::size_t mode = in.index(4);
  if (mode == 3 && previous != nullptr) return *previous;
  linalg::Vector mean(d);
  for (std::size_t c = 0; c < d; ++c) {
    mean[c] = mode == 0   ? static_cast<double>(in.index(5)) - 2.0
              : mode == 1 ? in.small_value()
                          : extreme(in);
  }
  return mean;
}

/// One covariance, bitwise symmetric by construction.
linalg::Matrix fuzz_cov(FuzzInput& in, std::size_t d,
                        const linalg::Matrix* previous) {
  const std::size_t mode = in.index(5);
  linalg::Matrix cov(d, d);
  if (mode == 0) return cov;
  if (mode == 3) return previous != nullptr ? *previous : cov;
  std::vector<double> a(d * d);
  for (double& x : a) x = in.small_value() / 4.0;
  const double scale = mode == 4 ? std::abs(extreme(in)) : 1.0;
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      double acc = 0.0;
      if (mode == 2) {  // rank one plus 1e-13·I
        acc = a[r] * a[c] + (r == c ? 1e-13 : 0.0);
      } else {  // A·Aᵀ + 0.1·I, scaled
        acc = r == c ? 0.1 : 0.0;
        for (std::size_t t = 0; t < d; ++t) acc += a[r * d + t] * a[c * d + t];
      }
      cov(r, c) = scale * acc;
    }
  }
  return cov;
}

linalg::Vector fuzz_summary(FuzzInput& in, std::size_t d,
                            const linalg::Vector* previous) {
  return fuzz_mean(in, d, previous);
}

ddc::stats::Gaussian fuzz_summary(FuzzInput& in, std::size_t d,
                                  const ddc::stats::Gaussian* previous) {
  linalg::Vector mean =
      fuzz_mean(in, d, previous != nullptr ? &previous->mean() : nullptr);
  linalg::Matrix cov =
      fuzz_cov(in, d, previous != nullptr ? &previous->cov() : nullptr);
  return ddc::stats::Gaussian(std::move(mean), std::move(cov));
}

gossip::CentroidScaleProtocol::Partition make_partition(
    const gossip::CentroidScaleProtocol&) {
  return {};
}

gossip::GmScaleProtocol::Partition make_partition(
    const gossip::GmScaleProtocol&) {
  return gossip::GmScaleProtocol::Partition(ddc::stats::Rng(7));
}

/// Runs `f`, returning the message of anything it throws.
template <typename F>
std::optional<std::string> outcome(F&& f) {
  try {
    f();
  } catch (const std::exception& error) {
    return std::string(error.what());
  }
  return std::nullopt;
}

/// Up to kMaxReceives receives, each compared both ways.
template <typename Binding>
void run(FuzzInput& in, std::size_t d, std::size_t k, std::int64_t cap) {
  using Summary = typename Binding::Summary;
  ddc::sim::EngineConfig config;
  config.k = k;
  config.quanta_per_unit = cap;
  const Binding protocol(d, config);
  const std::size_t sd = protocol.summary_doubles();
  typename Binding::PoolScratch scratch;
  core::ClassifierOptions options;
  options.k = k;
  options.quanta_per_unit = cap;

  for (std::size_t receive = 0; receive < kMaxReceives && !in.exhausted();
       ++receive) {
    const std::string label = "receive " + std::to_string(receive) + " d " +
                              std::to_string(d) + " k " + std::to_string(k);
    typename Binding::Classifier reference(linalg::Vector(d),
                                           make_partition(protocol), options);
    // The receiver's own collections, then the inbox in delivery order.
    std::vector<core::Collection<Summary>> gathered;
    const auto next = [&] {
      const Summary* previous =
          gathered.empty() ? nullptr : &gathered.back().summary;
      const auto quanta = 1 + static_cast<std::int64_t>(
                                  in.index(static_cast<std::size_t>(cap)));
      Summary summary = fuzz_summary(in, d, previous);
      gathered.push_back({std::move(summary),
                          core::Weight::from_quanta(quanta), {}});
      return gathered.back();
    };
    auto& own = reference.mutable_classification().collections();
    own.clear();
    const std::size_t own_count = 1 + in.index(k);
    for (std::size_t c = 0; c < own_count; ++c) own.push_back(next());
    core::Classification<Summary> incoming;
    const std::size_t messages = 1 + in.index(3);
    for (std::size_t msg = 0; msg < messages; ++msg) {
      const std::size_t size = 1 + in.index(k);
      for (std::size_t c = 0; c < size; ++c) incoming.add(next());
    }

    const std::size_t m = gathered.size();
    std::int64_t total = 0;
    if (scratch.rows.size() < m * sd) scratch.rows.resize(m * sd);
    if (scratch.quanta.size() < m) scratch.quanta.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      scratch.quanta[j] = gathered[j].weight.quanta();
      total += scratch.quanta[j];
      protocol.pack(gathered[j].summary, scratch.rows.data() + j * sd);
    }
    std::vector<double> out_rows(k * sd);
    std::vector<std::int64_t> out_quanta(k);
    std::size_t count = 0;
    const auto pool_error = outcome([&] {
      count = protocol.receive_rows(scratch, m, out_rows.data(),
                                    out_quanta.data());
    });
    const auto object_error =
        outcome([&] { reference.receive(std::move(incoming)); });
    if (pool_error != object_error) {
      fail(label + ": outcomes differ: pool " +
           pool_error.value_or("(returned)") + " vs object " +
           object_error.value_or("(returned)"));
    }
    if (pool_error) continue;

    const auto& expected = reference.classification();
    if (count != expected.size()) fail(label + ": collection counts differ");
    std::int64_t kept = 0;
    std::vector<double> expected_row(sd);
    for (std::size_t c = 0; c < count; ++c) {
      if (out_quanta[c] != expected[c].weight.quanta()) {
        fail(label + ": quanta differ at collection " + std::to_string(c));
      }
      kept += out_quanta[c];
      protocol.pack(expected[c].summary, expected_row.data());
      for (std::size_t x = 0; x < sd; ++x) {
        if (std::bit_cast<std::uint64_t>(out_rows[c * sd + x]) !=
            std::bit_cast<std::uint64_t>(expected_row[x])) {
          fail(label + ": double " + std::to_string(x) +
               " differs at collection " + std::to_string(c));
        }
      }
    }
    if (kept != total) fail(label + ": quanta not conserved");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzInput in(data, size);
  const bool gm = in.index(2) == 1;
  const std::size_t d = 1 + in.index(5);
  const std::size_t k = 1 + in.index(3);
  // Coarse quanta (1..16 per collection): one-quantum collections, and
  // with them the singleton re-home, are common.
  const std::int64_t cap = std::int64_t{1} << in.index(5);
  if (gm) {
    run<gossip::GmScaleProtocol>(in, d, k, cap);
  } else {
    run<gossip::CentroidScaleProtocol>(in, d, k, cap);
  }
  return 0;
}
