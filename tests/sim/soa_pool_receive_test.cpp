// Differential test: the scale engine's pool receive against
// GenericClassifier::receive.
//
// CentroidScaleProtocol::receive_rows runs Algorithm 1's receive on
// packed rows instead of a rehydrated Classification. It must produce the
// same collections bit for bit: same count, same weight quanta, same
// summary doubles (compared by bit pattern, so even a -0.0/+0.0 flip
// fails). Inputs are randomized with coarse quanta (2⁴ per unit, many
// one-quantum collections) so the one-quantum re-home fires, and with
// coordinates drawn from a tiny integer grid so exact distance ties and
// duplicate centroids are common. Cells cover m ≤ k and m > k,
// d ∈ {1, …, 5} (d = 5 takes the kernels' kDynamic path) and
// k ∈ {1, 2, 3}. One PoolScratch serves every case, so stale contents of
// its reused buffers would show up as mismatches too.
#include <ddc/gossip/scale.hpp>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ddc::gossip {
namespace {

using Protocol = CentroidScaleProtocol;
using Collection = core::Collection<linalg::Vector>;

constexpr std::int64_t kQuanta = 16;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// One random collection: weight 1 quantum a third of the time, else up
/// to the full unit; centroid on the grid {-2, …, 2}^d or, for a quarter
/// of the collections, continuous.
Collection random_collection(stats::Rng& rng, std::size_t d) {
  const std::int64_t quanta =
      rng.uniform_index(3) == 0
          ? 1
          : 1 + static_cast<std::int64_t>(rng.uniform_index(kQuanta));
  linalg::Vector centroid(d);
  const bool grid = rng.uniform_index(4) != 0;
  for (std::size_t c = 0; c < d; ++c) {
    centroid[c] = grid ? static_cast<double>(rng.uniform_index(5)) - 2.0
                       : rng.normal(0.0, 1.0);
  }
  return Collection{std::move(centroid), core::Weight::from_quanta(quanta),
                    {}};
}

struct Counts {
  std::size_t at_most_k = 0;
  std::size_t above_k = 0;
};

/// Runs one receive both ways and expects identical results.
void check_case(stats::Rng& rng, std::size_t d, std::size_t k,
                Protocol::PoolScratch& scratch, Counts& counts,
                const std::string& label) {
  NetworkConfig net;
  net.k = k;
  net.quanta_per_unit = kQuanta;
  const Protocol protocol(d, net);

  core::ClassifierOptions options;
  options.k = k;
  options.quanta_per_unit = kQuanta;
  Protocol::Classifier reference(linalg::Vector(d), Protocol::Partition{},
                                 options);

  // The receiver's own collections, then the inbox messages in delivery
  // order — receive's union order, which the engine's gather reproduces.
  std::vector<Collection> gathered;
  auto& own = reference.mutable_classification().collections();
  own.clear();
  const std::size_t own_count = 1 + rng.uniform_index(k);
  for (std::size_t c = 0; c < own_count; ++c) {
    own.push_back(random_collection(rng, d));
    gathered.push_back(own.back());
  }
  core::Classification<linalg::Vector> incoming;
  const std::size_t messages = 1 + rng.uniform_index(3);
  for (std::size_t msg = 0; msg < messages; ++msg) {
    const std::size_t size = 1 + rng.uniform_index(k);
    for (std::size_t c = 0; c < size; ++c) {
      incoming.add(random_collection(rng, d));
      gathered.push_back(incoming.collections().back());
    }
  }
  const std::size_t m = gathered.size();
  (m <= k ? counts.at_most_k : counts.above_k) += 1;

  if (scratch.rows.size() < m * d) scratch.rows.resize(m * d);
  if (scratch.quanta.size() < m) scratch.quanta.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    scratch.quanta[j] = gathered[j].weight.quanta();
    protocol.pack(gathered[j].summary, scratch.rows.data() + j * d);
  }
  std::vector<double> out_rows(k * d);
  std::vector<std::int64_t> out_quanta(k);
  const std::size_t count =
      protocol.receive_rows(scratch, m, out_rows.data(), out_quanta.data());

  reference.receive(std::move(incoming));
  const auto& expected = reference.classification();
  ASSERT_EQ(count, expected.size()) << label;
  for (std::size_t c = 0; c < count; ++c) {
    EXPECT_EQ(out_quanta[c], expected[c].weight.quanta())
        << label << " collection " << c;
    for (std::size_t x = 0; x < d; ++x) {
      EXPECT_EQ(bits(out_rows[c * d + x]), bits(expected[c].summary[x]))
          << label << " collection " << c << " coordinate " << x;
    }
  }
}

TEST(SoaPoolReceive, MatchesGenericClassifierBitForBit) {
  stats::Rng rng(0x90015eedULL);
  Protocol::PoolScratch scratch;
  Counts counts;
  std::uint64_t rehomes_before = 0;
  std::uint64_t rehome_cases = 0;
  for (std::size_t d = 1; d <= 5; ++d) {
    for (std::size_t k = 1; k <= 3; ++k) {
      for (std::size_t trial = 0; trial < 300; ++trial) {
        check_case(rng, d, k, scratch, counts,
                   "d " + std::to_string(d) + " k " + std::to_string(k) +
                       " trial " + std::to_string(trial));
        if (scratch.stats.singleton_rehomes != rehomes_before) {
          ++rehome_cases;
          rehomes_before = scratch.stats.singleton_rehomes;
        }
      }
    }
  }
  // The cells must actually exercise both regimes and the re-home path.
  EXPECT_GT(counts.at_most_k, 100U);
  EXPECT_GT(counts.above_k, 100U);
  EXPECT_GT(rehome_cases, 50U);
  EXPECT_EQ(scratch.stats.receives, 5U * 3U * 300U);
}

/// The same comparison on the pool receive's own statistics: the
/// re-home and merge counters must agree with the classifier's.
TEST(SoaPoolReceive, CountsMatchGenericClassifier) {
  for (std::size_t k = 1; k <= 3; ++k) {
    NetworkConfig net;
    net.k = k;
    net.quanta_per_unit = kQuanta;
    const Protocol protocol(2, net);
    core::ClassifierOptions options;
    options.k = k;
    options.quanta_per_unit = kQuanta;
    Protocol::Classifier reference(linalg::Vector(2), Protocol::Partition{},
                                   options);
    Protocol::PoolScratch scratch;
    stats::Rng rng(k);
    for (std::size_t trial = 0; trial < 200; ++trial) {
      auto& own = reference.mutable_classification().collections();
      own.clear();
      own.push_back(random_collection(rng, 2));
      core::Classification<linalg::Vector> incoming;
      const std::size_t size = 1 + rng.uniform_index(2 * k);
      for (std::size_t c = 0; c < size; ++c) {
        incoming.add(random_collection(rng, 2));
      }
      const std::size_t m = 1 + size;
      scratch.rows.resize(m * 2);
      scratch.quanta.resize(m);
      scratch.quanta[0] = own.front().weight.quanta();
      protocol.pack(own.front().summary, scratch.rows.data());
      for (std::size_t c = 0; c < size; ++c) {
        scratch.quanta[1 + c] = incoming[c].weight.quanta();
        protocol.pack(incoming[c].summary, scratch.rows.data() + 2 * (1 + c));
      }
      std::vector<double> out_rows(2 * k);
      std::vector<std::int64_t> out_quanta(k);
      (void)protocol.receive_rows(scratch, m, out_rows.data(),
                                  out_quanta.data());
      reference.receive(std::move(incoming));
    }
    EXPECT_EQ(scratch.stats.receives, reference.stats().receives);
    EXPECT_EQ(scratch.stats.singleton_rehomes,
              reference.stats().singleton_rehomes);
    EXPECT_EQ(scratch.stats.collections_merged,
              reference.stats().collections_merged);
    // With k = 1 everything merges into one group: nothing to re-home.
    if (k > 1) {
      EXPECT_GT(scratch.stats.singleton_rehomes, 0U) << "k " << k;
    }
  }
}

}  // namespace
}  // namespace ddc::gossip
