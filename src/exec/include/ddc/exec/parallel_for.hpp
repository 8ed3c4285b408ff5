// Deterministic data-parallel loop on top of ThreadPool.
//
// parallel_for(pool, count, body) runs body(i) for every i in [0, count)
// and returns when all calls finished. Guarantees:
//
//   * Chunking is STABLE: the split of the index range into contiguous
//     chunks depends only on (count, number of chunks), never on timing.
//     Which thread runs which chunk is scheduler-dependent — so bodies
//     must make results independent of execution order (the simulation
//     engines achieve this by having body(i) touch only state owned by
//     index i).
//   * The calling thread participates, so a null pool (or a pool with no
//     workers) degrades to a plain sequential loop with sequential
//     semantics — including the exact i = 0 … count-1 order.
//   * The first exception thrown by a body is captured and rethrown on
//     the calling thread; remaining chunks are abandoned (indices in
//     already-running chunks may still execute).
//
// Do not call parallel_for on a pool from inside a task running on that
// same pool: the inner call may wait on helper tasks queued behind
// blocked outer tasks. Give nested parallel work its own pool (the round
// runner owns one per runner for exactly this reason).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <utility>

#include <ddc/exec/thread_pool.hpp>

namespace ddc::exec {

/// The number of contiguous chunks parallel_for / parallel_for_chunks
/// splits [0, count) into. Depends only on (pool worker count, count) —
/// never on timing — so callers can pre-allocate per-chunk scratch state
/// once and reuse it across calls.
[[nodiscard]] inline std::size_t parallel_chunk_count(const ThreadPool* pool,
                                                      std::size_t count) {
  const std::size_t workers = pool == nullptr ? 0 : pool->num_threads();
  if (workers == 0 || count < 2) return count == 0 ? 0 : 1;
  // More chunks than threads so a slow chunk (e.g. one node's EM run)
  // doesn't leave the rest of the pool idle; boundaries depend only on
  // (count, num_chunks).
  return std::min(count, (workers + 1) * 4);
}

/// Chunk-granular variant of parallel_for: body(chunk, begin, end) is
/// called once per contiguous chunk, with chunk < parallel_chunk_count(
/// pool, count) and [begin, end) the chunk's index range. Same guarantees
/// as parallel_for (stable chunking, caller participates, first exception
/// rethrown); additionally each chunk index is used by exactly one call,
/// so per-chunk scratch state (indexed by `chunk`) needs no
/// synchronization. The scale engine uses this to give each chunk its own
/// receive scratch.
template <typename ChunkBody>
void parallel_for_chunks(ThreadPool* pool, std::size_t count,
                         ChunkBody&& body) {
  const std::size_t num_chunks = parallel_chunk_count(pool, count);
  if (num_chunks <= 1) {
    if (num_chunks == 1) body(std::size_t{0}, std::size_t{0}, count);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next_chunk{0};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t tasks_finished = 0;
    std::exception_ptr error;
  } shared;

  auto drain = [&shared, &body, count, num_chunks] {
    for (;;) {
      const std::size_t c =
          shared.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t begin = c * count / num_chunks;
      const std::size_t end = (c + 1) * count / num_chunks;
      try {
        body(c, begin, end);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(shared.mutex);
        if (!shared.error) shared.error = std::current_exception();
        // Poison the counter so other threads stop picking up chunks.
        shared.next_chunk.store(num_chunks, std::memory_order_relaxed);
        return;
      }
    }
  };

  // One helper task per worker (never more than there are chunks); the
  // caller drains alongside them and then waits for every helper to
  // retire, so `shared`/`body` stay alive until all tasks are done.
  const std::size_t helpers = std::min(pool->num_threads(), num_chunks - 1);
  for (std::size_t t = 0; t < helpers; ++t) {
    pool->submit([&shared, drain] {
      drain();
      const std::lock_guard<std::mutex> lock(shared.mutex);
      ++shared.tasks_finished;
      shared.done.notify_one();
    });
  }
  drain();
  std::unique_lock<std::mutex> lock(shared.mutex);
  shared.done.wait(lock,
                   [&shared, helpers] { return shared.tasks_finished == helpers; });
  if (shared.error) std::rethrow_exception(shared.error);
}

template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t count, Body&& body) {
  parallel_for_chunks(pool, count,
                      [&body](std::size_t /*chunk*/, std::size_t begin,
                              std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

}  // namespace ddc::exec
