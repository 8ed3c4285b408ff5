// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <type_traits>
#include <vector>

#include <ddc/exec/parallel_for.hpp>
#include <ddc/exec/thread_pool.hpp>
#include <ddc/metrics/classification_metrics.hpp>

namespace ddc::bench {

/// Runs gossip rounds until all nodes' classifications agree with node 0
/// to within `threshold` (checked every `check_every` rounds), or until
/// `max_rounds`. Returns the number of rounds executed — the
/// "rounds to convergence" statistic the paper reports.
template <typename SummaryPolicy, typename Runner>
std::size_t run_until_agreement(Runner& runner, double threshold,
                                std::size_t check_every,
                                std::size_t max_rounds) {
  std::size_t rounds = 0;
  while (rounds < max_rounds) {
    for (std::size_t r = 0; r < check_every && rounds < max_rounds; ++r) {
      runner.run_round();
      ++rounds;
    }
    if (metrics::max_disagreement_vs_first<SummaryPolicy>(runner.nodes()) <
        threshold) {
      break;
    }
  }
  return rounds;
}

/// Thread budget for the bench binaries: DDC_BENCH_THREADS if set (a
/// value of 1 forces the old fully-sequential behaviour), otherwise one
/// per hardware thread.
[[nodiscard]] inline std::size_t bench_threads() {
  if (const char* env = std::getenv("DDC_BENCH_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  return exec::ThreadPool::hardware_threads();
}

/// Process-wide worker pool for replicate sweeps, sized from
/// bench_threads(). Returns nullptr when the budget is one thread —
/// exec::parallel_for then runs plain sequential loops.
[[nodiscard]] inline exec::ThreadPool* shared_pool() {
  static exec::ThreadPool pool(bench_threads() - 1);
  return pool.num_threads() > 0 ? &pool : nullptr;
}

/// Fans `count` independent runs across the shared pool and returns their
/// results in index order — the replicate/parameter-sweep workhorse of
/// the fig*/abl_* binaries. `fn(i)` must depend only on `i` (derive all
/// seeds from it or from per-index state) so that results are identical
/// at any thread count; rows are then printed in deterministic order by
/// the sequential caller.
template <typename Fn>
[[nodiscard]] auto sweep(std::size_t count, Fn&& fn) {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<Result>,
                "sweep bodies return their row's data");
  std::vector<Result> results(count);
  exec::parallel_for(shared_pool(), count,
                     [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace ddc::bench
