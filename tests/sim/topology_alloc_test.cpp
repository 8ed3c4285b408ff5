// Peak heap of a topology build.
//
// This binary replaces the global operator new with one that tracks live
// heap bytes and their high-water mark, so it is built on its own
// (topology_alloc_tests) and the replacement cannot leak into any other
// suite. Bytes are counted as malloc_usable_size reports them, on both
// allocation and release, so every delete form balances its new.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>

namespace {

std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  const std::size_t bytes = size == 0 ? 1 : size;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else {
    p = std::aligned_alloc(align, (bytes + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  const std::size_t usable = malloc_usable_size(p);
  const std::size_t live =
      g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
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
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace ddc::sim {
namespace {

// An undirected build holds one pair per edge while it scatters the CSR,
// and frees it before the connectivity check; storing both arcs and
// keeping them alive through that check costs about 5× the CSR.
TEST(TopologyAlloc, ErdosRenyiPeakWithinThreeTimesCsr) {
  stats::Rng rng(1);
  const std::size_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  const Topology t = Topology::erdos_renyi(20000, 0.0008, rng);
  const std::size_t peak = g_peak_bytes.load() - before;
  const std::size_t csr_bytes = (t.num_nodes() + 1) * sizeof(std::size_t) +
                                t.num_edges() * sizeof(NodeId);
  EXPECT_LE(peak, 3 * csr_bytes)
      << "peak " << peak << " B, CSR " << csr_bytes << " B, ratio "
      << static_cast<double>(peak) / static_cast<double>(csr_bytes);
}

}  // namespace
}  // namespace ddc::sim
