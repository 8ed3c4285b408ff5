// Allocation-free once warm: the packed EM and the GM pool receive.
//
// This binary replaces the global operator new with a counting one, so
// it is built on its own (em_alloc_tests) and the replacement cannot
// leak into any other suite. Each test makes one warm-up call, then
// 1,000 calls on the same workspace and scratch, and requires that those
// calls allocate nothing and reproduce the warm-up's result.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/em/mixture_reduction.hpp>
#include <ddc/gossip/scale.hpp>

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t bytes = size == 0 ? 1 : size;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else {
    p = std::aligned_alloc(align, (bytes + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ddc {
namespace {

constexpr int kCalls = 1000;

/// Six 2-D inputs in two clusters, packed as pool rows (mean, then
/// covariance), half of them point masses.
std::vector<double> two_cluster_rows() {
  std::vector<double> rows;
  const double means[6][2] = {{-0.5, 0.0}, {0.0, 0.3},  {0.4, -0.2},
                              {20.0, 0.1}, {19.5, -0.3}, {20.5, 0.2}};
  for (int i = 0; i < 6; ++i) {
    const double var = i % 2 == 0 ? 0.0 : 0.1 * (i + 1);
    rows.insert(rows.end(), {means[i][0], means[i][1], var, 0.0, 0.0, var});
  }
  return rows;
}

void expect_reduce_em_rows_alloc_free(std::size_t restarts) {
  const std::vector<double> rows = two_cluster_rows();
  const std::vector<double> weights = {1.0, 2.0, 1.0, 1.5, 1.0, 0.5};
  em::EmWorkspace ws;
  core::Grouping groups;
  stats::Rng rng(5);
  stats::Rng* const stream = restarts > 1 ? &rng : nullptr;
  const em::ReductionOptions options{.restarts = restarts};
  const em::RowsReduction first =
      em::reduce_em_rows(rows.data(), weights.data(), 6, 2, 2, ws, groups,
                         stream, options);
  const core::Grouping warm(groups.begin(),
                            groups.begin() + static_cast<std::ptrdiff_t>(
                                                 first.groups));
  bool same = true;
  const std::size_t before = g_allocations.load();
  for (int call = 0; call < kCalls; ++call) {
    const em::RowsReduction r =
        em::reduce_em_rows(rows.data(), weights.data(), 6, 2, 2, ws, groups,
                           stream, options);
    same = same && r.groups == first.groups;
  }
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0U) << "restarts " << restarts;
  EXPECT_TRUE(same);
  EXPECT_EQ(first.groups, 2U);
  EXPECT_EQ(warm, (core::Grouping{{0, 1, 2}, {3, 4, 5}}));
}

TEST(EmAllocFree, ReduceEmRowsAllocatesNothingOnceWarm) {
  expect_reduce_em_rows_alloc_free(1);
}

TEST(EmAllocFree, RandomRestartsAllocateNothingOnceWarm) {
  expect_reduce_em_rows_alloc_free(4);
}

/// The GM pool receive on m collections, with one-quantum collections so
/// the re-home path runs too, both above k (EM) and at k (identity).
void expect_receive_rows_alloc_free(std::size_t m) {
  sim::EngineConfig config;
  config.k = 2;
  const gossip::GmScaleProtocol protocol(2, config);
  gossip::GmScaleProtocol::PoolScratch scratch;
  const std::vector<double> rows = two_cluster_rows();
  scratch.rows.assign(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(
                                                       m * 6));
  const std::vector<std::int64_t> quanta = {1, 40, 3, 1, 17, 2};
  scratch.quanta.assign(quanta.begin(),
                        quanta.begin() + static_cast<std::ptrdiff_t>(m));
  std::vector<double> out_rows(2 * 6);
  std::vector<std::int64_t> out_quanta(2);
  const std::size_t first =
      protocol.receive_rows(scratch, m, out_rows.data(), out_quanta.data());
  const std::vector<double> warm_rows = out_rows;
  bool same = true;
  const std::size_t before = g_allocations.load();
  for (int call = 0; call < kCalls; ++call) {
    same = same && protocol.receive_rows(scratch, m, out_rows.data(),
                                         out_quanta.data()) == first;
  }
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0U) << "m " << m;
  EXPECT_TRUE(same);
  EXPECT_EQ(out_rows, warm_rows);
  EXPECT_EQ(scratch.stats.receives, 1U + kCalls);
}

TEST(EmAllocFree, GmReceiveRowsAllocatesNothingOnceWarm) {
  expect_receive_rows_alloc_free(6);
  expect_receive_rows_alloc_free(2);
}

TEST(EmAllocFree, CounterSeesAllocations) {
  // Guards the instrument: a vector growth must register.
  const std::size_t before = g_allocations.load();
  std::vector<double>* v = new std::vector<double>(16);
  delete v;
  EXPECT_GE(g_allocations.load() - before, 2U);
}

}  // namespace
}  // namespace ddc
