// Heap held by a topology build and by a scale engine.
//
// This binary replaces the global operator new with one that tracks live
// heap bytes and their high-water mark, so it is built on its own
// (topology_alloc_tests) and the replacement cannot leak into any other
// suite. Every block carries its requested size in a header just below
// the pointer handed out, so the counts are the bytes asked for, exactly,
// and every delete form balances its new.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/gossip/scale.hpp>
#include <ddc/sim/engine_config.hpp>
#include <ddc/sim/topology.hpp>
#include <ddc/stats/rng.hpp>
#include <ddc/workload/scenarios.hpp>

namespace {

std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

constexpr std::size_t kMinHeader = alignof(std::max_align_t);

std::size_t header_for(std::size_t align) {
  return std::max(align, kMinHeader);
}

void* counted_alloc(std::size_t size, std::size_t align) {
  const std::size_t header = header_for(align);
  void* base = nullptr;
  if (align <= kMinHeader) {
    base = std::malloc(header + size);
  } else {
    base = std::aligned_alloc(align,
                              (header + size + align - 1) / align * align);
  }
  if (base == nullptr) throw std::bad_alloc();
  std::byte* const p = static_cast<std::byte*>(base) + header;
  std::memcpy(p - sizeof(std::size_t), &size, sizeof(std::size_t));
  const std::size_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void counted_free(void* p, std::size_t align) noexcept {
  if (p == nullptr) return;
  std::byte* const block = static_cast<std::byte*>(p);
  std::size_t size = 0;
  std::memcpy(&size, block - sizeof(std::size_t), sizeof(std::size_t));
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  std::free(block - header_for(align));
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
void operator delete(void* p) noexcept { counted_free(p, 0); }
void operator delete[](void* p) noexcept { counted_free(p, 0); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p, 0); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p, 0); }
void operator delete(void* p, std::align_val_t align) noexcept {
  counted_free(p, static_cast<std::size_t>(align));
}
void operator delete[](void* p, std::align_val_t align) noexcept {
  counted_free(p, static_cast<std::size_t>(align));
}
void operator delete(void* p, std::size_t, std::align_val_t align) noexcept {
  counted_free(p, static_cast<std::size_t>(align));
}
void operator delete[](void* p, std::size_t, std::align_val_t align) noexcept {
  counted_free(p, static_cast<std::size_t>(align));
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

// The heap a push centroid scale engine holds once built, topology
// included: n = 20 000 nodes, k = 2, 1-D inputs (sd = 1 double per
// summary), parallelism 1 (no thread pool).
struct EngineHeap {
  std::size_t n = 0;
  std::size_t arcs = 0;
  std::size_t live = 0;
};

EngineHeap engine_heap(GossipPattern pattern) {
  EngineConfig config;
  config.pattern = pattern;
  stats::Rng rng(1);
  const auto inputs = workload::two_clusters_inputs(20000, rng);
  const std::size_t before = g_live_bytes.load();
  auto engine = gossip::make_centroid_scale_engine(
      Topology::erdos_renyi(20000, 0.0008, rng), inputs, config);
  return {engine.num_nodes(), engine.topology().num_edges(),
          g_live_bytes.load() - before};
}

/// A node id, a plan entry and an arc target each take 4 B.
constexpr std::size_t kIdBytes = 4;

/// One node row or message slot: a collection count, k quanta and k
/// packed summaries of sd doubles.
constexpr std::size_t kRowBytes =
    sizeof(std::uint32_t) + 2 * sizeof(std::int64_t) + 2 * 1 * sizeof(double);

/// Half the push-pull message arena: one slot per initiator.
std::size_t arena_half(std::size_t n) { return n * kRowBytes; }

// 4 B per arc and 8 B per node of arc offsets (the CSR), the node pools,
// one arena half (push sends forwards only), and three 4 B plan entries
// per node (targets, contact offsets, contacts). Uniform selection holds
// no round-robin cursors and a one-shard contiguous map no tables; what
// is left (the alive bits, the engine's own small vectors) fits in 10%.
TEST(EngineAlloc, PushCentroidScaleEngineHoldsItsFormula) {
  const EngineHeap heap = engine_heap(GossipPattern::push);
  const std::size_t csr =
      heap.arcs * kIdBytes + (heap.n + 1) * sizeof(std::size_t);
  const std::size_t plan = (3 * heap.n + 1) * kIdBytes;
  const std::size_t formula =
      csr + heap.n * kRowBytes + arena_half(heap.n) + plan;
  EXPECT_GE(heap.live, formula);
  EXPECT_LE(heap.live * 10, formula * 11)
      << "live " << heap.live << " B, formula " << formula << " B, ratio "
      << static_cast<double>(heap.live) / static_cast<double>(formula);
}

// Push-pull also sends replies: exactly one more arena half.
TEST(EngineAlloc, PushPullHoldsOneArenaHalfMore) {
  const EngineHeap push = engine_heap(GossipPattern::push);
  const EngineHeap push_pull = engine_heap(GossipPattern::push_pull);
  ASSERT_EQ(push.arcs, push_pull.arcs);
  EXPECT_EQ(push_pull.live - push.live, arena_half(push.n));
}

}  // namespace
}  // namespace ddc::sim
