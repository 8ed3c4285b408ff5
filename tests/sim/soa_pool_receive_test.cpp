// Differential test: the scale engine's pool receive against
// GenericClassifier::receive.
//
// Each binding's receive_rows (CentroidScaleProtocol,
// GmScaleProtocol) runs Algorithm 1's receive on packed rows instead of
// a rehydrated Classification. It must produce the same collections bit
// for bit: same count, same weight quanta, same summary doubles
// (compared by bit pattern, so even a -0.0/+0.0 flip fails). Inputs are
// randomized with coarse quanta (2⁴ per unit, many one-quantum
// collections) so the one-quantum re-home fires, and with means drawn
// from a tiny integer grid so exact distance ties and duplicate
// summaries are common; GM covariances are all-zero (point masses) or
// random SPD. Cells cover m ≤ k and m > k and k ∈ {1, 2, 3}, with
// d ∈ {1, …, 5} for centroids (d = 5 takes the kernels' kDynamic path)
// and d ∈ {1, 2, 3} for GM. One PoolScratch serves every case of a
// protocol, so stale contents of its reused buffers would show up as
// mismatches too.
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
using GmCollection = core::Collection<stats::Gaussian>;

constexpr std::int64_t kQuanta = 16;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Weight 1 quantum a third of the time, else up to the full unit.
core::Weight random_weight(stats::Rng& rng) {
  return core::Weight::from_quanta(
      rng.uniform_index(3) == 0
          ? 1
          : 1 + static_cast<std::int64_t>(rng.uniform_index(kQuanta)));
}

/// A point on the grid {-2, …, 2}^d or, a quarter of the time, a
/// continuous one.
linalg::Vector random_point(stats::Rng& rng, std::size_t d) {
  linalg::Vector point(d);
  const bool grid = rng.uniform_index(4) != 0;
  for (std::size_t c = 0; c < d; ++c) {
    point[c] = grid ? static_cast<double>(rng.uniform_index(5)) - 2.0
                    : rng.normal(0.0, 1.0);
  }
  return point;
}

/// One random centroid collection.
Collection random_collection(stats::Rng& rng, std::size_t d) {
  const core::Weight weight = random_weight(rng);
  return Collection{random_point(rng, d), weight, {}};
}

/// One random GM collection: a grid or continuous mean with, half of the
/// time, an all-zero covariance (a point mass, as every node starts) and
/// otherwise a random SPD one, A·Aᵀ + 0.1·I (bitwise symmetric).
GmCollection random_gm_collection(stats::Rng& rng, std::size_t d) {
  const core::Weight weight = random_weight(rng);
  linalg::Vector mean = random_point(rng, d);
  linalg::Matrix cov(d, d);
  if (rng.uniform_index(2) == 0) {
    std::vector<double> a(d * d);
    for (double& x : a) x = rng.normal(0.0, 1.0);
    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t c = 0; c < d; ++c) {
        double acc = r == c ? 0.1 : 0.0;
        for (std::size_t t = 0; t < d; ++t) acc += a[r * d + t] * a[c * d + t];
        cov(r, c) = acc;
      }
    }
  }
  return GmCollection{stats::Gaussian(std::move(mean), std::move(cov)),
                      weight, {}};
}

struct Counts {
  std::size_t at_most_k = 0;
  std::size_t above_k = 0;
};

/// Runs one receive both ways — Binding::receive_rows and a `reference`
/// classifier built over `partition` — and expects identical results.
template <typename Binding, typename RandomCollection>
void check_case(stats::Rng& rng, std::size_t d, std::size_t k,
                typename Binding::Partition partition,
                RandomCollection&& random,
                typename Binding::PoolScratch& scratch, Counts& counts,
                const std::string& label) {
  using Summary = typename Binding::Summary;
  sim::EngineConfig config;
  config.k = k;
  config.quanta_per_unit = kQuanta;
  const Binding protocol(d, config);
  const std::size_t sd = protocol.summary_doubles();

  core::ClassifierOptions options;
  options.k = k;
  options.quanta_per_unit = kQuanta;
  typename Binding::Classifier reference(linalg::Vector(d),
                                         std::move(partition), options);

  // The receiver's own collections, then the inbox messages in delivery
  // order — receive's union order, which the engine's gather reproduces.
  std::vector<core::Collection<Summary>> gathered;
  auto& own = reference.mutable_classification().collections();
  own.clear();
  const std::size_t own_count = 1 + rng.uniform_index(k);
  for (std::size_t c = 0; c < own_count; ++c) {
    own.push_back(random(rng, d));
    gathered.push_back(own.back());
  }
  core::Classification<Summary> incoming;
  const std::size_t messages = 1 + rng.uniform_index(3);
  for (std::size_t msg = 0; msg < messages; ++msg) {
    const std::size_t size = 1 + rng.uniform_index(k);
    for (std::size_t c = 0; c < size; ++c) {
      incoming.add(random(rng, d));
      gathered.push_back(incoming.collections().back());
    }
  }
  const std::size_t m = gathered.size();
  (m <= k ? counts.at_most_k : counts.above_k) += 1;

  if (scratch.rows.size() < m * sd) scratch.rows.resize(m * sd);
  if (scratch.quanta.size() < m) scratch.quanta.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    scratch.quanta[j] = gathered[j].weight.quanta();
    protocol.pack(gathered[j].summary, scratch.rows.data() + j * sd);
  }
  std::vector<double> out_rows(k * sd);
  std::vector<std::int64_t> out_quanta(k);
  const std::size_t count =
      protocol.receive_rows(scratch, m, out_rows.data(), out_quanta.data());

  reference.receive(std::move(incoming));
  const auto& expected = reference.classification();
  ASSERT_EQ(count, expected.size()) << label;
  std::vector<double> expected_row(sd);
  for (std::size_t c = 0; c < count; ++c) {
    EXPECT_EQ(out_quanta[c], expected[c].weight.quanta())
        << label << " collection " << c;
    protocol.pack(expected[c].summary, expected_row.data());
    for (std::size_t x = 0; x < sd; ++x) {
      EXPECT_EQ(bits(out_rows[c * sd + x]), bits(expected_row[x]))
          << label << " collection " << c << " double " << x;
    }
  }
}

std::string cell_label(std::size_t d, std::size_t k, std::size_t trial) {
  return "d " + std::to_string(d) + " k " + std::to_string(k) + " trial " +
         std::to_string(trial);
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
        check_case<Protocol>(rng, d, k, Protocol::Partition{},
                             random_collection, scratch, counts,
                             cell_label(d, k, trial));
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

/// The GM binding against GenericClassifier<GaussianPolicy, EmPartition>:
/// EM reduction, re-home on mean distance and moment-matched merges.
TEST(SoaPoolReceive, GmMatchesGenericClassifierBitForBit) {
  using Gm = GmScaleProtocol;
  stats::Rng rng(0x6a55eedULL);
  Gm::PoolScratch scratch;
  Counts counts;
  std::uint64_t rehomes_before = 0;
  std::uint64_t rehome_cases = 0;
  constexpr std::size_t kTrials = 150;
  for (std::size_t d = 1; d <= 3; ++d) {
    for (std::size_t k = 1; k <= 3; ++k) {
      for (std::size_t trial = 0; trial < kTrials; ++trial) {
        check_case<Gm>(rng, d, k, Gm::Partition(stats::Rng(trial)),
                       random_gm_collection, scratch, counts,
                       "gm " + cell_label(d, k, trial));
        if (scratch.stats.singleton_rehomes != rehomes_before) {
          ++rehome_cases;
          rehomes_before = scratch.stats.singleton_rehomes;
        }
      }
    }
  }
  EXPECT_GT(counts.at_most_k, 20U);
  EXPECT_GT(counts.above_k, 100U);
  EXPECT_GT(rehome_cases, 10U);
  EXPECT_GT(scratch.stats.collections_merged, 0U);
  EXPECT_EQ(scratch.stats.receives, 3U * 3U * kTrials);
  EXPECT_GT(scratch.em_seconds, 0.0);
}

/// The same comparison on the pool receive's own statistics: the
/// re-home and merge counters must agree with the classifier's.
TEST(SoaPoolReceive, CountsMatchGenericClassifier) {
  for (std::size_t k = 1; k <= 3; ++k) {
    sim::EngineConfig config;
    config.k = k;
    config.quanta_per_unit = kQuanta;
    const Protocol protocol(2, config);
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
