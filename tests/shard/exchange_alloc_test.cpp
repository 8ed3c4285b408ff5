// Heap blocks on the cross-shard message path.
//
// This binary replaces the global operator new with a counting one, so
// it is built on its own (exchange_alloc_tests) and the replacement
// cannot leak into any other suite. It pins three things:
//
//   * a linalg::Vector of dimension 1 or 2 lives inline (constructing,
//     copying, moving and assigning it allocate nothing), and one of
//     dimension 3 owns exactly one heap block;
//   * a warm wire::Encoder writes a whole batch frame of classification
//     records in place without allocating;
//   * a warm 2-shard loopback round allocates at most one block per
//     received record (the decoded message's collection array) more
//     than the same round on one shard, plus a constant per frame.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <ddc/linalg/vector.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/stats/rng.hpp>
#include <ddc/wire/framing.hpp>
#include <ddc/wire/serialize.hpp>

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

/// Heap blocks `fn` allocates.
template <typename Fn>
std::size_t blocks(Fn&& fn) {
  const std::size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(ExchangeAlloc, SmallVectorsLiveInline) {
  const std::vector<double> raw = {1.0, 2.0, 3.0};
  for (const std::size_t dim : {std::size_t{1}, std::size_t{2}}) {
    EXPECT_EQ(blocks([&] {
                linalg::Vector a(dim, 1.5);
                linalg::Vector b(a);
                linalg::Vector c(std::move(b));
                linalg::Vector d(dim);
                d = a;
                d = std::move(c);
                linalg::Vector e(std::span<const double>(raw.data(), dim));
                b = e;
                ASSERT_EQ(d, a);
              }),
              0U)
        << "dim " << dim;
  }
  EXPECT_EQ(blocks([] { const linalg::Vector v{0.5, -0.5}; }), 0U);
}

TEST(ExchangeAlloc, ThreeDimensionalVectorOwnsOneBlock) {
  EXPECT_EQ(blocks([] { const linalg::Vector v(3); }), 1U);
  EXPECT_EQ(blocks([] { const linalg::Vector v{1.0, 2.0, 3.0}; }), 1U);
  const linalg::Vector a(3, 1.5);
  EXPECT_EQ(blocks([&] { const linalg::Vector copy(a); }), 1U);
  linalg::Vector b(3);
  EXPECT_EQ(blocks([&] { b = a; }), 0U);  // same dimension: in place
  EXPECT_EQ(blocks([&] { const linalg::Vector moved(std::move(b)); }), 0U);
}

core::Classification<linalg::Vector> message(std::size_t collections,
                                             std::uint64_t seed) {
  stats::Rng rng(seed);
  core::Classification<linalg::Vector> c;
  for (std::size_t i = 0; i < collections; ++i) {
    c.add({linalg::Vector{rng.normal(0.0, 1.0), rng.normal(5.0, 1.0)},
           core::Weight::from_quanta(static_cast<std::int64_t>(i) + 3),
           {}});
  }
  return c;
}

TEST(ExchangeAlloc, WarmEncoderWritesBatchFrameInPlace) {
  std::vector<core::Classification<linalg::Vector>> messages;
  for (std::uint64_t r = 0; r < 300; ++r) messages.push_back(message(2, r));
  wire::Encoder frame;
  wire::Encoder record;
  const auto write = [&] {
    frame.clear();
    wire::append_frame_header(frame, wire::FrameKind::batch, 1, 8);
    wire::append_batch_header(frame, 7, 1, 4, messages.size());
    for (std::size_t r = 0; r < messages.size(); ++r) {
      record.clear();
      wire::append_classification(record, messages[r]);
      wire::append_batch_record(
          frame, {static_cast<std::uint32_t>(r), 200, wire::BatchTag::reply,
                  record.bytes()});
    }
  };
  write();
  const std::vector<std::byte> warm = frame.bytes();
  EXPECT_EQ(blocks(write), 0U);
  EXPECT_EQ(frame.bytes(), warm);
}

std::vector<linalg::Vector> inputs(std::size_t n) {
  stats::Rng rng(3);
  std::vector<linalg::Vector> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(linalg::Vector{
        i % 2 == 0 ? rng.normal(0.0, 1.0) : rng.normal(25.0, 2.0),
        rng.normal(0.0, 1.0)});
  }
  return out;
}

TEST(ExchangeAlloc, MultiShardRoundAddsOneBlockPerReceivedRecord) {
  // Frames of the round: every batch and every ack. Per frame the
  // loopback fabric copies the bytes and queues them, the receiver's
  // inbox grows, and each advance builds its in-flight queue afresh.
  constexpr std::size_t kPerFrame = 4;
  constexpr std::size_t kNodes = 400;
  constexpr std::size_t kWarmRounds = 8;
  sim::EngineConfig config;
  config.k = 2;
  config.protocol_seed = 11;
  config.seed = 12;
  config.pattern = sim::GossipPattern::push_pull;
  stats::Rng graph_rng(5);
  const auto topology = sim::Topology::erdos_renyi(kNodes, 0.02, graph_rng);
  const auto points = inputs(kNodes);
  auto mono = shard::make_centroid_shard_cluster(topology, points, config, 1);
  auto cluster =
      shard::make_centroid_shard_cluster(topology, points, config, 2);
  mono.run_rounds(kWarmRounds);
  cluster.run_rounds(kWarmRounds);

  const auto frames_sent = [&] {
    std::uint64_t frames = 0;
    for (net::PeerId s = 0; s < 2; ++s) {
      frames += cluster.network().endpoint(s).stats(1 - s).frames_sent;
    }
    return frames;
  };
  const auto records_received = [&] {
    return cluster.engine(0).stats().batch_records_received +
           cluster.engine(1).stats().batch_records_received;
  };
  const std::size_t one_shard = blocks([&] { mono.run_round(); });
  const std::uint64_t frames_before = frames_sent();
  const std::uint64_t records_before = records_received();
  const std::size_t two_shards = blocks([&] { cluster.run_round(); });
  const std::uint64_t frames = frames_sent() - frames_before;
  const std::uint64_t records = records_received() - records_before;

  ASSERT_GT(records, 100U);  // the round really moves messages
  EXPECT_LE(two_shards, one_shard + records + kPerFrame * frames)
      << "one shard " << one_shard << ", two shards " << two_shards
      << ", records " << records << ", frames " << frames;
}

TEST(ExchangeAlloc, CounterSeesAllocations) {
  // Guards the instrument: a vector growth must register.
  EXPECT_GE(blocks([] {
              std::vector<double>* v = new std::vector<double>(16);
              delete v;
            }),
            2U);
}

}  // namespace
}  // namespace ddc
