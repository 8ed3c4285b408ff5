#!/usr/bin/env bash
# The repo's correctness gate: every machine-checkable guarantee, one
# entry point. CI (.github/workflows/ci.yml) runs exactly this script;
# run it locally before sending a PR.
#
# Gates, cheapest first:
#
#   1. format      clang-format --check against .clang-format
#                  (skips, loudly, where clang-format is absent).
#   2. lint        the static analyzer (scripts/verify_invariants.sh):
#                  ddcverify's determinism rules and protocol invariants
#                  (wire-taint, hot-path-alloc, simd-parity) over src/,
#                  after its planted-violation self-test.
#   3. clang-tidy  curated .clang-tidy over src/ tools/ bench/ fuzz/
#                  (skips, loudly, where clang-tidy is absent; CI has
#                  it and exports DDC_TIDY_STRICT=1).
#   4. schedules   the schedule-exhaustive race explorer
#                  (tests/shard/schedule_explorer_test.cpp): every
#                  delivery order / drop / duplication schedule of the
#                  shard batch+ack round must complete with the
#                  1-shard-identical digest, and the planted
#                  empty-barrier-retransmit bug must be caught.
#   5. perfbench   builds the benchmark driver (perfbench/), the main
#                  consumer of the engine factories, which no ctest
#                  compiles.
#   6. TSan        exec/sim/gossip/shard suites under ThreadSanitizer —
#                  the round engines' determinism tests drive the pool
#                  at several thread counts, which is where races live;
#                  the shard suite covers ShardEngine, the object engine
#                  included, with 4 shards at 4 threads each.
#   7. ASan+UBSan  the FULL ctest suite under AddressSanitizer +
#                  UndefinedBehaviorSanitizer. Not just wire/net/io:
#                  the partition/EM hot paths rewritten in PR 3 run
#                  under ASan here too, as do the shard suite, the
#                  schedule explorer and the multi-shard UDP smoke
#                  (cluster_multishard_smoke drives sanitized ddcnode
#                  shard processes); bench_scale is built too, for the
#                  record-schema ctests.
#   8. SIMD tiers  a dedicated -mavx2 build runs the kernel-equivalence
#                  and batched-scorer suites (the lanewise AVX2 kernels
#                  must be bit-identical to the scalar reference), then
#                  the same binaries rerun with
#                  DDC_SIMD=scalar — including the sim golden digests —
#                  and a ddcsim cross-mode run asserts DDC_SIMD=auto and
#                  DDC_SIMD=scalar produce byte-identical RESULT lines.
#   9. bench gate  smoke-mode scripts/bench_gate.sh against
#                  BENCH_hotpath.json, so a hot-path complexity
#                  regression (say, an accidental return to the O(m³)
#                  partition rescan) fails even when every unit test
#                  still passes; then the 10k-node scale tier and the
#                  loopback-cluster tier, both bench_scale entries of
#                  BENCH_scale.json gated on the medians of three runs
#                  (throughput + peak RSS; the cluster rows also gate
#                  records per batch frame and exact cut edges). The 100k/1M
#                  tiers are on-demand via scripts/bench_gate.sh
#                  --scale-full.
#  10. fuzz smoke  the four fuzz harnesses (wire framing decode,
#                  classifier invariants via the ddc::audit pool
#                  auditors, the SoA pool receive against
#                  GenericClassifier::receive bit for bit, and mutated
#                  batch and ack frames into a 2-shard loopback
#                  ShardEngine) replay the committed corpus plus
#                  DDC_FUZZ_RUNS fresh deterministic iterations under
#                  ASan+UBSan.
#
# Environment:
#   DDC_FUZZ_RUNS   mutational iterations per fuzz harness (default
#                   20000; the acceptance bar of 100k+ is a one-off,
#                   see fuzz/README.md).
#   DDC_SKIP_SLOW   set to 1 to stop after the static gates (1-3).
set -euo pipefail
cd "$(dirname "$0")/.."

DDC_FUZZ_RUNS=${DDC_FUZZ_RUNS:-20000}

echo "=== gate 1/10: format check ==="
scripts/format.sh --check

echo
echo "=== gate 2/10: lint (determinism + protocol invariants) ==="
scripts/verify_invariants.sh

echo
echo "=== gate 3/10: clang-tidy ==="
scripts/tidy.sh

if [[ "${DDC_SKIP_SLOW:-0}" == "1" ]]; then
  echo
  echo "DDC_SKIP_SLOW=1 — static gates done, skipping sanitizers/bench/fuzz."
  exit 0
fi

TSAN_DIR=build-tsan
ASAN_DIR=build-asan
SIMD_DIR=build-simd
FUZZ_DIR=build-fuzz

echo
echo "=== gate 4/10: schedule-exhaustive race explorer ==="
cmake -B build -S . >/dev/null
cmake --build build --target schedule_tests -j "$(nproc)"
build/tests/schedule_tests

echo "Schedule gate passed: all explored schedules barrier-live and bit-exact."

echo
echo "=== gate 5/10: benchmark driver build ==="
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench --target ddc_perfbench -j "$(nproc)"

echo "perfbench driver builds against the current factories."

echo
echo "=== gate 6/10: ThreadSanitizer (exec, sim, gossip, shard) ==="
cmake -B "$TSAN_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$TSAN_DIR" --target exec_tests sim_tests gossip_tests \
  shard_tests -j "$(nproc)"

"$TSAN_DIR"/tests/exec_tests
"$TSAN_DIR"/tests/sim_tests
"$TSAN_DIR"/tests/gossip_tests
"$TSAN_DIR"/tests/shard_tests

echo "TSan-clean: exec, sim, gossip and shard test suites."

echo
echo "=== gate 7/10: ASan+UBSan, full test suite ==="
cmake -B "$ASAN_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$ASAN_DIR" -j "$(nproc)" --target \
  linalg_tests stats_tests core_tests summaries_tests em_tests \
  partition_tests exec_tests sim_tests gossip_tests wire_tests net_tests \
  shard_tests schedule_tests audit_tests metrics_tests workload_tests \
  io_tests cli_tests integration_tests em_alloc_tests topology_alloc_tests \
  exchange_alloc_tests \
  ddcsim ddcnode \
  ddcverify bench_scale

# halt_on_error so UBSan findings fail the gate instead of scrolling by.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
(cd "$ASAN_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "ASan+UBSan-clean: full ctest suite."

echo
echo "=== gate 8/10: SIMD tiers (AVX2 build + forced-scalar rerun) ==="
cmake -B "$SIMD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-mavx2"
cmake --build "$SIMD_DIR" --target linalg_tests stats_tests sim_tests ddcsim \
  -j "$(nproc)"

# AVX2 leg: kernel equivalence + batched scorer suites with the AVX2 TU
# guaranteed in the binary. The lanewise-vs-scalar bit-identity tests
# skip themselves on non-AVX2 CPUs.
"$SIMD_DIR"/tests/linalg_tests
"$SIMD_DIR"/tests/stats_tests

# Forced-scalar leg: the same binaries pinned to the reference kernels.
# The sim golden digests must reproduce bit for bit on the scalar path.
DDC_SIMD=scalar "$SIMD_DIR"/tests/linalg_tests
DDC_SIMD=scalar "$SIMD_DIR"/tests/stats_tests
DDC_SIMD=scalar "$SIMD_DIR"/tests/sim_tests

# Cross-mode determinism: node 0's final classification must be
# byte-identical whichever bit-exact tier scored the E step.
simd_auto=$(DDC_SIMD=auto "$SIMD_DIR"/tools/ddcsim --nodes=24 --rounds=20 \
  --seed=7 --summary-line | grep '^RESULT')
simd_scalar=$(DDC_SIMD=scalar "$SIMD_DIR"/tools/ddcsim --nodes=24 --rounds=20 \
  --seed=7 --summary-line | grep '^RESULT')
if [[ "$simd_auto" != "$simd_scalar" ]]; then
  echo "SIMD gate FAILED: DDC_SIMD=auto and DDC_SIMD=scalar disagree" >&2
  echo "  auto:   $simd_auto" >&2
  echo "  scalar: $simd_scalar" >&2
  exit 1
fi

echo "SIMD gate passed: AVX2 + forced-scalar legs clean, cross-mode RESULT identical."

echo
echo "=== gate 9/10: bench regression gate ==="
# The gate needs an optimized, unsanitized binary; the default build dir
# is RelWithDebInfo. Smoke mode keeps the run short and its tolerance
# loose enough for a loaded CI host while still catching order-of-
# magnitude complexity regressions.
scripts/bench_gate.sh --smoke

echo "Bench gate passed: hot-path kernels within tolerance of BENCH_hotpath.json."

# Scale and cluster tiers: one bench_gate.sh path, medians of three
# bench_scale runs per entry vs BENCH_scale.json — the 10k-node "gate"
# block, then the loopback-cluster "cluster" block (plus the batching
# rule and exact cut edges). The 100k/1M tiers are on-demand only
# (scripts/bench_gate.sh --scale-full).
scripts/bench_gate.sh --scale

echo "Scale gate passed: 10k-node tier within tolerance of BENCH_scale.json."

scripts/bench_gate.sh --cluster

echo "Cluster gate passed: cluster tier within tolerance of BENCH_scale.json."

echo
echo "=== gate 10/10: fuzz smoke ==="
cmake -B "$FUZZ_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDDC_FUZZ=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$FUZZ_DIR" --target fuzz_framing fuzz_classifier \
  fuzz_pool_receive fuzz_shard_batch -j "$(nproc)"

"$FUZZ_DIR"/fuzz/fuzz_framing      -runs="$DDC_FUZZ_RUNS" -seed=1 fuzz/corpus/framing
"$FUZZ_DIR"/fuzz/fuzz_classifier   -runs="$DDC_FUZZ_RUNS" -seed=1 fuzz/corpus/classifier
"$FUZZ_DIR"/fuzz/fuzz_pool_receive -runs="$DDC_FUZZ_RUNS" -seed=1 fuzz/corpus/pool_receive
"$FUZZ_DIR"/fuzz/fuzz_shard_batch  -runs="$DDC_FUZZ_RUNS" -seed=1 fuzz/corpus/shard_batch

echo "Fuzz smoke passed: corpus + ${DDC_FUZZ_RUNS} iterations per harness."

echo
echo "All gates passed."
