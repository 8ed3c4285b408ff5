#!/usr/bin/env bash
# Static-analysis gate: runs tools/ddcverify over the library sources
# and the node binary's plumbing. Four rule families (see
# `ddcverify --list-rules`):
#
#   determinism      raw-rand, nonportable-engine, unordered-iter,
#                    wall-clock, float-reorder: the hazard patterns
#                    that break bit-identical runs.
#   wire-taint       transport-derived bytes must flow through the
#                    bounds-checked Decoder; raw memcpy / pointer
#                    arithmetic / reinterpret_cast on tainted buffers is
#                    flagged.
#   hot-path-alloc   functions reachable from a `// ddcverify: hotpath`
#                    root must not allocate (new/malloc/make_unique or
#                    fresh owning containers) — scratch must be hoisted.
#   simd-parity      every kernel registered in the linalg::simd
#                    dispatch seam needs a scalar twin, and every
#                    dispatch accessor must appear in the equivalence
#                    tests.
#
# Kept exceptions carry inline `// ddcverify: allow(<rule>)` markers
# with an audit rationale on the same or preceding line — the analyzer
# reports a clean tree only when every unmarked site is genuinely clean.
#
# The analyzer's self-test runs first: planted violations and allow
# markers for every rule, so a rule that goes blind (or a marker that
# stops suppressing) fails the gate before the tree scan can vacuously
# pass. ctest runs this script as `ddcverify_tree_scan`.
#
# Usage:
#   scripts/verify_invariants.sh           # self-test + scan
#   BUILD_DIR=build scripts/verify_invariants.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
DDCVERIFY="$BUILD_DIR/tools/ddcverify"

if [[ ! -x "$DDCVERIFY" ]]; then
  echo "verify_invariants: building ddcverify..."
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target ddcverify -j "$(nproc)" >/dev/null
fi

"$DDCVERIFY" --self-test

# The scanned set: every library module, so a new module is covered by
# default, plus the node binary's stats/result plumbing.
"$DDCVERIFY" \
  --simd-dispatch src/linalg/include/ddc/linalg/simd.hpp,src/linalg/src/simd.cpp \
  --simd-tests tests/linalg/kernel_equivalence_test.cpp,tests/stats/score_batch_test.cpp \
  src \
  tools/ddcnode.cpp \
  tools/result_line.hpp

echo "Static analysis passed."
