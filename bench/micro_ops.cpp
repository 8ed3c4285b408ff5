// Microbenchmarks (google-benchmark) for the computational kernels the
// protocol spends its time in: small-matrix factorizations, Gaussian
// densities, moment matching, EM mixture reduction, the classifier's
// split/receive cycle, and the simulator's event loop.
#include <benchmark/benchmark.h>

#include <cstdint>

#include <ddc/core/classifier.hpp>
#include <ddc/em/mixture_reduction.hpp>
#include <ddc/gossip/network.hpp>
#include <ddc/linalg/cholesky.hpp>
#include <ddc/linalg/eigen_sym.hpp>
#include <ddc/linalg/simd.hpp>
#include <ddc/partition/greedy.hpp>
#include <ddc/shard/factories.hpp>
#include <ddc/sim/event_queue.hpp>
#include <ddc/stats/gaussian.hpp>
#include <ddc/summaries/centroid.hpp>

namespace {

using ddc::linalg::Matrix;
using ddc::linalg::Vector;
using ddc::stats::Gaussian;
using ddc::stats::GaussianMixture;

Matrix random_spd(std::size_t d, ddc::stats::Rng& rng) {
  Matrix b(d, d);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < d; ++c) b(r, c) = rng.normal();
  }
  Matrix a = b * ddc::linalg::transpose(b);
  for (std::size_t i = 0; i < d; ++i) a(i, i) += 0.5;
  return a;
}

void BM_CholeskyFactorize(benchmark::State& state) {
  ddc::stats::Rng rng(1);
  const Matrix a = random_spd(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    ddc::linalg::Cholesky f(a);
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_CholeskyFactorize)->Arg(2)->Arg(4)->Arg(8);

void BM_EigenSym(benchmark::State& state) {
  ddc::stats::Rng rng(2);
  const Matrix a = random_spd(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto e = ddc::linalg::eigen_sym(a);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_EigenSym)->Arg(2)->Arg(4);

void BM_GaussianLogPdf(benchmark::State& state) {
  ddc::stats::Rng rng(3);
  const Gaussian g(Vector{0.0, 0.0}, random_spd(2, rng));
  const Vector x{0.5, -0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.log_pdf(x));
  }
}
BENCHMARK(BM_GaussianLogPdf);

void BM_ExpectedLogPdf(benchmark::State& state) {
  ddc::stats::Rng rng(4);
  const Gaussian a(Vector{0.0, 0.0}, random_spd(2, rng));
  const Gaussian b(Vector{1.0, 1.0}, random_spd(2, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddc::stats::expected_log_pdf(a, b));
  }
}
BENCHMARK(BM_ExpectedLogPdf);

void BM_MomentMatch(benchmark::State& state) {
  ddc::stats::Rng rng(5);
  std::vector<ddc::stats::WeightedGaussian> parts;
  for (int i = 0; i < state.range(0); ++i) {
    parts.push_back({rng.uniform(0.5, 2.0),
                     Gaussian(Vector{rng.normal(), rng.normal()},
                              random_spd(2, rng))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddc::stats::moment_match(parts));
  }
}
BENCHMARK(BM_MomentMatch)->Arg(2)->Arg(8)->Arg(14);

GaussianMixture reduce_em_input(std::size_t l) {
  ddc::stats::Rng rng(6);
  GaussianMixture input;
  for (std::size_t i = 0; i < l; ++i) {
    const double cx = static_cast<double>(i % 3) * 10.0;
    input.add({rng.uniform(0.5, 2.0),
               Gaussian(Vector{rng.normal(cx, 1.0), rng.normal()},
                        random_spd(2, rng))});
  }
  return input;
}

void BM_ReduceEm(benchmark::State& state) {
  const GaussianMixture input =
      reduce_em_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ddc::stats::Rng em_rng(7);
    benchmark::DoNotOptimize(
        ddc::em::reduce_em(input, 3, em_rng));
  }
}
BENCHMARK(BM_ReduceEm)->Arg(6)->Arg(14);

void BM_ReduceEmRows(benchmark::State& state) {
  // BM_ReduceEm's inputs packed once (mean, then covariance: the pool
  // layout), reduced in a warm workspace — the GM pool receive's EM.
  const GaussianMixture input =
      reduce_em_input(static_cast<std::size_t>(state.range(0)));
  std::vector<double> rows;
  std::vector<double> weights;
  for (const auto& part : input.components()) {
    const auto& mean = part.gaussian.mean().data();
    const auto& cov = part.gaussian.cov().data();
    rows.insert(rows.end(), mean.begin(), mean.end());
    rows.insert(rows.end(), cov.begin(), cov.end());
    weights.push_back(part.weight);
  }
  ddc::em::EmWorkspace ws;
  ddc::core::Grouping groups;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddc::em::reduce_em_rows(
        rows.data(), weights.data(), input.size(), 2, 3, ws, groups, nullptr));
  }
}
BENCHMARK(BM_ReduceEmRows)->Arg(6)->Arg(14);

void BM_ReduceRunnalls(benchmark::State& state) {
  ddc::stats::Rng rng(8);
  GaussianMixture input;
  for (int i = 0; i < state.range(0); ++i) {
    const double cx = (i % 3) * 10.0;
    input.add({rng.uniform(0.5, 2.0),
               Gaussian(Vector{rng.normal(cx, 1.0), rng.normal()},
                        random_spd(2, rng))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddc::em::reduce_runnalls(input, 3));
  }
}
BENCHMARK(BM_ReduceRunnalls)->Arg(6)->Arg(14);

// --- Hot-path benchmarks gated by scripts/bench_gate.sh ------------------
// Names and shapes are pinned by BENCH_hotpath.json; rename in both places.

std::vector<ddc::core::WeightedSummary<Vector>> partition_inputs(
    std::size_t m) {
  ddc::stats::Rng rng(12);
  std::vector<ddc::core::WeightedSummary<Vector>> out;
  out.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    out.push_back({Vector{rng.normal(i % 2 == 0 ? 0.0 : 10.0, 1.0),
                          rng.normal()},
                   static_cast<double>(1 + rng.uniform_index(4))});
  }
  return out;
}

void BM_GreedyPartition(benchmark::State& state) {
  const auto inputs = partition_inputs(static_cast<std::size_t>(state.range(0)));
  const ddc::partition::GreedyDistancePartition<ddc::summaries::CentroidPolicy>
      policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.partition(inputs, 2));
  }
}
BENCHMARK(BM_GreedyPartition)->Arg(16)->Arg(64)->Arg(256);

void BM_CentroidDistanceBatch(benchmark::State& state) {
  // The greedy partition's distance-matrix fill in isolation: distances
  // from one d-dimensional point to 256 packed points through the
  // dispatched batch kernel (lanewise AVX2 on this host, scalar
  // fallback elsewhere — both bit-identical to linalg::distance2).
  const auto d = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPoints = 256;
  ddc::stats::Rng rng(33);
  std::vector<double> a(d);
  std::vector<double> bs(kPoints * d);
  for (auto& v : a) v = rng.normal();
  for (auto& v : bs) v = rng.normal();
  std::vector<double> out(kPoints);
  const ddc::linalg::simd::DistanceBatchFn kernel =
      ddc::linalg::simd::batch_distance_kernel();
  for (auto _ : state) {
    kernel(a.data(), bs.data(), kPoints, out.data(), d);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CentroidDistanceBatch)->Arg(2)->Arg(4);

void BM_GreedyPartitionNaive(benchmark::State& state) {
  // The "before" side: the retained O(m³) reference implementation. Not
  // gated (it is the thing the gate protects against regressing TO).
  const auto inputs = partition_inputs(static_cast<std::size_t>(state.range(0)));
  const ddc::partition::NaiveGreedyDistancePartition<
      ddc::summaries::CentroidPolicy>
      policy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.partition(inputs, 2));
  }
}
BENCHMARK(BM_GreedyPartitionNaive)->Arg(16)->Arg(64)->Arg(256);

/// A mixture's components packed structure-of-arrays (means count×d,
/// covariances count×d²): the batch scoring kernel's input.
struct SoaBatch {
  explicit SoaBatch(const GaussianMixture& mixture) : count(mixture.size()) {
    for (const auto& part : mixture.components()) {
      const auto& mean = part.gaussian.mean().data();
      const auto& cov = part.gaussian.cov().data();
      means.insert(means.end(), mean.begin(), mean.end());
      covs.insert(covs.end(), cov.begin(), cov.end());
    }
  }
  std::size_t count;
  std::vector<double> means;
  std::vector<double> covs;
};

GaussianMixture estep_mixture(std::size_t m, std::uint64_t seed) {
  ddc::stats::Rng rng(seed);
  GaussianMixture out;
  for (std::size_t i = 0; i < m; ++i) {
    const double cx = static_cast<double>(i % 3) * 10.0;
    out.add({rng.uniform(0.5, 2.0),
             Gaussian(Vector{rng.normal(cx, 1.0), rng.normal()},
                      random_spd(2, rng))});
  }
  return out;
}

void BM_EmEStepHoisted(benchmark::State& state) {
  // One EM E step's scoring work through the object-level scorer:
  // factorize each model component once, then score every (input, model)
  // pair.
  const GaussianMixture inputs = estep_mixture(14, 13);
  const GaussianMixture models = estep_mixture(7, 14);
  for (auto _ : state) {
    std::vector<ddc::stats::ExpectedLogPdfScorer> scorers;
    scorers.reserve(models.size());
    for (std::size_t j = 0; j < models.size(); ++j) {
      scorers.emplace_back(models[j].gaussian);
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (const auto& s : scorers) acc += s.score(inputs[i].gaussian);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EmEStepHoisted);

void BM_EmEStepBatched(benchmark::State& state) {
  // The same 14x7 workload through the batched entry point: inputs
  // packed once, then one batch-kernel pass per model per "iteration".
  const GaussianMixture inputs = estep_mixture(14, 13);
  const GaussianMixture models = estep_mixture(7, 14);
  const SoaBatch batch(inputs);
  const ddc::linalg::simd::ScoreBatchFn kernel =
      ddc::linalg::simd::batch_score_kernel();
  std::vector<double> scratch(8 * 2);
  std::vector<double> scores(models.size() * inputs.size());
  for (auto _ : state) {
    std::vector<ddc::stats::ExpectedLogPdfScorer> scorers;
    scorers.reserve(models.size());
    for (std::size_t j = 0; j < models.size(); ++j) {
      scorers.emplace_back(models[j].gaussian);
    }
    for (std::size_t j = 0; j < scorers.size(); ++j) {
      kernel(scorers[j].view(), batch.means.data(), batch.covs.data(),
             batch.count, scores.data() + j * batch.count, scratch.data());
    }
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_EmEStepBatched);

void BM_ScoreBatch(benchmark::State& state) {
  // Pure batched-scoring throughput at the paper's dimensions: 32 inputs
  // x 4 models, scorers and SoA batch prebuilt so only the kernel runs.
  const auto d = static_cast<std::size_t>(state.range(0));
  ddc::stats::Rng rng(21);
  GaussianMixture inputs;
  for (std::size_t i = 0; i < 32; ++i) {
    Vector mean(d);
    for (std::size_t c = 0; c < d; ++c) mean[c] = rng.normal();
    inputs.add({1.0, Gaussian(mean, random_spd(d, rng))});
  }
  std::vector<ddc::stats::ExpectedLogPdfScorer> scorers;
  for (std::size_t j = 0; j < 4; ++j) {
    Vector mean(d);
    for (std::size_t c = 0; c < d; ++c) mean[c] = rng.normal();
    scorers.emplace_back(Gaussian(mean, random_spd(d, rng)));
  }
  const SoaBatch batch(inputs);
  const ddc::linalg::simd::ScoreBatchFn kernel =
      ddc::linalg::simd::batch_score_kernel();
  std::vector<double> scratch(8 * d);
  std::vector<double> scores(scorers.size() * batch.count);
  for (auto _ : state) {
    for (std::size_t j = 0; j < scorers.size(); ++j) {
      kernel(scorers[j].view(), batch.means.data(), batch.covs.data(),
             batch.count, scores.data() + j * batch.count, scratch.data());
    }
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_ScoreBatch)->Arg(2)->Arg(4);

void BM_MomentMatchFixed(benchmark::State& state) {
  // Moment matching with the dimension as the sweep axis — exercises the
  // fixed-d add_scaled/add_scaled_spread kernels (8 parts).
  const auto d = static_cast<std::size_t>(state.range(0));
  ddc::stats::Rng rng(22);
  std::vector<ddc::stats::WeightedGaussian> parts;
  for (int i = 0; i < 8; ++i) {
    Vector mean(d);
    for (std::size_t c = 0; c < d; ++c) mean[c] = rng.normal();
    parts.push_back({rng.uniform(0.5, 2.0), Gaussian(mean, random_spd(d, rng))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddc::stats::moment_match(parts));
  }
}
BENCHMARK(BM_MomentMatchFixed)->Arg(2)->Arg(4);

void BM_EmEStepPairwise(benchmark::State& state) {
  // The "before" side: the free function refactorizes the model for every
  // pair, which is what the E step used to do. Not gated.
  const GaussianMixture inputs = estep_mixture(14, 13);
  const GaussianMixture models = estep_mixture(7, 14);
  for (auto _ : state) {
    double acc = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (std::size_t j = 0; j < models.size(); ++j) {
        acc += ddc::stats::expected_log_pdf(inputs[i].gaussian,
                                            models[j].gaussian);
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_EmEStepPairwise);

// --------------------------------------------------------------------------

void BM_ClassifierExchange(benchmark::State& state) {
  // One full split→receive cycle between two GM nodes.
  ddc::stats::Rng rng(9);
  std::vector<Vector> inputs = {Vector{0.0, 0.0}, Vector{5.0, 5.0}};
  ddc::sim::EngineConfig config;
  config.k = static_cast<std::size_t>(state.range(0));
  auto nodes = ddc::gossip::make_gm_nodes(inputs, config);
  for (auto _ : state) {
    auto msg = nodes[0].prepare_message();
    if (!msg.empty()) {
      std::vector<ddc::gossip::GmNode::Message> batch;
      batch.push_back(std::move(msg));
      nodes[1].absorb(std::move(batch));
    }
    auto back = nodes[1].prepare_message();
    if (!back.empty()) {
      std::vector<ddc::gossip::GmNode::Message> batch;
      batch.push_back(std::move(back));
      nodes[0].absorb(std::move(batch));
    }
  }
}
BENCHMARK(BM_ClassifierExchange)->Arg(2)->Arg(7);

void BM_EventQueueSchedule(benchmark::State& state) {
  for (auto _ : state) {
    ddc::sim::EventQueue q;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(static_cast<double>((i * 7919) % 1000), [] {});
    }
    q.run(1000);
    benchmark::DoNotOptimize(q.executed());
  }
}
BENCHMARK(BM_EventQueueSchedule)->Unit(benchmark::kMicrosecond);

void BM_PushSumRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ddc::stats::Rng rng(10);
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) inputs.push_back(Vector{rng.normal()});
  auto runner = ddc::shard::make_push_sum_round_runner(
      ddc::sim::Topology::complete(n), inputs);
  for (auto _ : state) {
    runner.run_round();
  }
}
BENCHMARK(BM_PushSumRound)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_GmNetworkRound(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  ddc::stats::Rng rng(11);
  std::vector<Vector> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(Vector{rng.normal(i % 2 == 0 ? 0.0 : 10.0, 1.0),
                            rng.normal()});
  }
  ddc::sim::EngineConfig config;
  config.k = 2;
  config.parallelism = static_cast<std::size_t>(state.range(1));
  auto runner = ddc::shard::make_gm_round_runner(
      ddc::sim::Topology::complete(n), inputs, config);
  for (auto _ : state) {
    runner.run_round();
  }
}
BENCHMARK(BM_GmNetworkRound)
    ->Args({100, 1})
    ->Args({512, 1})  // gated: the BENCH_hotpath.json round-throughput pin
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->Args({1000, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
