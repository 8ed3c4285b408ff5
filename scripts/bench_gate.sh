#!/usr/bin/env bash
# Benchmark regression gate for the hot-path kernels and the round engine.
#
# Runs the gated subset of bench/micro_ops (greedy partition, EM E-step
# scoring, full EM reduction, classifier exchange, moment matching,
# expected-log-pdf, 512-node GM round) and compares each kernel's median
# real_time against the committed baseline in BENCH_hotpath.json. Fails
# if any gated kernel is more than TOLERANCE above its baseline.
#
# The scale and cluster tiers gate bench/bench_scale against
# BENCH_scale.json: round throughput (rounds/s) and peak RSS per
# (protocol, topology, node count, shard count, thread count) entry, the
# median of three runs each. An entry fails if throughput drops below
# baseline/(1+tolerance) or peak RSS rises more than 20% above baseline
# (BENCHMARK.json's peak_rss_mb bound; peak RSS is steady to within a few
# percent between runs, so it needs none of the throughput's slack);
# where the baseline entry carries records_per_frame and cut_edges
# (the loopback-cluster rows), it also fails if a batching entry stops
# packing more than one record per frame or cut_edges rises at all.
#
# Usage:
#   scripts/bench_gate.sh            # full gate: 3 repetitions, 0.2s each
#   scripts/bench_gate.sh --smoke    # quick CI pass: 1 repetition, 0.05s,
#                                    # loose 2.0x tolerance (catches the
#                                    # accidental-O(m^3) class of regression
#                                    # without flaking on scheduler noise)
#   scripts/bench_gate.sh --update   # print a fresh "gate" JSON block to
#                                    # paste into BENCH_hotpath.json after a
#                                    # signed-off performance change
#   scripts/bench_gate.sh --scale        # 10k-node tier vs the "gate" block
#   scripts/bench_gate.sh --scale-full   # adds the 100k and 1M tiers
#                                        # ("full" block; several minutes)
#   scripts/bench_gate.sh --cluster      # loopback-cluster tier vs the
#                                        # "cluster" block
#   scripts/bench_gate.sh --scale-update   # print fresh "gate"/"full" blocks
#   scripts/bench_gate.sh --cluster-update # print a fresh "cluster" block
#
# Environment:
#   BUILD_DIR      build tree holding the bench binaries (default: build;
#                  the top-level CMakeLists defaults to RelWithDebInfo,
#                  so the default tree is already optimized)
#   BASELINE       baseline file (default: BENCH_hotpath.json, or
#                  BENCH_scale.json in the scale and cluster modes)
#   DDC_BENCH_TOLERANCE  override the regression tolerance, e.g. 0.25
#                  means "fail if median > baseline * 1.25" (in the scale
#                  and cluster tiers: throughput only; peak RSS is
#                  always gated at +20%)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

MODE=full
case "${1:-}" in
  --smoke) MODE=smoke ;;
  --update) MODE=update ;;
  --scale) MODE=scale ;;
  --scale-full) MODE=scale-full ;;
  --scale-update) MODE=scale-update ;;
  --cluster) MODE=cluster ;;
  --cluster-update) MODE=cluster-update ;;
  "") ;;
  *) echo "usage: $0 [--smoke|--update|--scale|--scale-full|--scale-update|--cluster|--cluster-update]" >&2
     exit 2 ;;
esac

# ---------------------------------------------------------------------------
# Scale and cluster tiers: one bench_scale process per run, so ru_maxrss
# is a clean per-configuration high-water mark.
# ---------------------------------------------------------------------------
if [[ "$MODE" == scale* || "$MODE" == cluster* ]]; then
  BASELINE=${BASELINE:-BENCH_scale.json}
  TOLERANCE=${DDC_BENCH_TOLERANCE:-0.5}
  RUNS=3  # per entry; the gate reads their medians

  # Always rebuild: a stale binary would benchmark old code.
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target bench_scale -j "$(nproc)"

  # name|bench_scale arguments, one array per BENCH_scale.json block; keep
  # them in sync. Every entry pins its thread count (the /tN key suffix),
  # so a baseline compares like with like on any host. The gate and full
  # tiers run pool storage on one shard; the 10⁵/10⁶-node entries pass a
  # sparse --radius/--er-prob (the defaults are paper-scale). The cluster
  # tier runs object storage over a loopback fabric; geometric/ER run once
  # per shard map, since contiguous is cut-pessimal there.
  GATE_TIER=(
    "centroid/ring/10000/t1|--topology ring --nodes 10000 --rounds 10 --threads 1"
    "centroid/grid/10000/t1|--topology grid --nodes 10000 --rounds 10 --threads 1"
    "centroid/geometric/10000/t1|--topology geometric --nodes 10000 --radius 0.022 --rounds 10 --threads 1"
    "centroid/er/10000/t1|--topology er --nodes 10000 --er-prob 0.0016 --rounds 10 --threads 1"
    "gm/ring/10000/t1|--protocol gm --topology ring --nodes 10000 --rounds 5 --threads 1"
  )
  FULL_TIER=(
    "centroid/ring/100000/t1|--topology ring --nodes 100000 --rounds 10 --threads 1"
    "centroid/grid/100000/t1|--topology grid --nodes 100000 --rounds 10 --threads 1"
    "centroid/geometric/100000/t1|--topology geometric --nodes 100000 --radius 0.007 --rounds 10 --threads 1"
    "centroid/er/100000/t1|--topology er --nodes 100000 --er-prob 0.00016 --rounds 10 --threads 1"
    "centroid/er/100000/t2|--topology er --nodes 100000 --er-prob 0.00016 --rounds 10 --threads 2"
    "centroid/er/100000/t4|--topology er --nodes 100000 --er-prob 0.00016 --rounds 10 --threads 4"
    "gm/ring/100000/t1|--protocol gm --topology ring --nodes 100000 --rounds 3 --threads 1"
    "gm/er/100000/t1|--protocol gm --topology er --nodes 100000 --er-prob 0.00016 --rounds 3 --threads 1"
    "gm/er/100000/t2|--protocol gm --topology er --nodes 100000 --er-prob 0.00016 --rounds 3 --threads 2"
    "gm/er/100000/t4|--protocol gm --topology er --nodes 100000 --er-prob 0.00016 --rounds 3 --threads 4"
    "centroid/ring/1000000/t1|--topology ring --nodes 1000000 --rounds 5 --threads 1"
    "centroid/grid/1000000/t1|--topology grid --nodes 1000000 --rounds 5 --threads 1"
    "centroid/geometric/1000000/t1|--topology geometric --nodes 1000000 --radius 0.0022 --rounds 5 --threads 1"
    "centroid/er/1000000/t1|--topology er --nodes 1000000 --er-prob 0.000016 --rounds 5 --threads 1"
  )
  CLUSTER_TIER=(
    "centroid/grid/2048x4/t1|--engine object --topology grid --nodes 2048 --shards 4 --rounds 50 --threads 1"
    "centroid/grid/2048x4-edgecut/t1|--engine object --topology grid --nodes 2048 --shards 4 --shard-map edgecut --rounds 50 --threads 1"
    "centroid/grid/2048x1/t1|--engine object --topology grid --nodes 2048 --shards 1 --rounds 50 --threads 1"
    "centroid/ring/4096x8/t1|--engine object --topology ring --nodes 4096 --shards 8 --rounds 30 --threads 1"
    "centroid/geometric/2048x4/t1|--engine object --topology geometric --nodes 2048 --radius 0.05 --shards 4 --rounds 50 --threads 1"
    "centroid/geometric/2048x4-edgecut/t1|--engine object --topology geometric --nodes 2048 --radius 0.05 --shards 4 --shard-map edgecut --rounds 50 --threads 1"
    "centroid/er/2048x4/t1|--engine object --topology er --nodes 2048 --er-prob 0.004 --shards 4 --rounds 50 --threads 1"
    "centroid/er/2048x4-edgecut/t1|--engine object --topology er --nodes 2048 --er-prob 0.004 --shards 4 --shard-map edgecut --rounds 50 --threads 1"
    "gm/grid/256x4/t1|--protocol gm --engine object --topology grid --nodes 256 --shards 4 --rounds 50 --threads 1"
  )
  case "$MODE" in
    scale) BLOCKS=(gate) ;;
    scale-full | scale-update) BLOCKS=(gate full) ;;
    cluster | cluster-update) BLOCKS=(cluster) ;;
  esac

  # gated_keys — per input line, print its "rounds_per_s peak_rss_mb
  # records_per_frame cut_edges" values, "-" for a key the line lacks. A
  # bench_scale record and a BENCH_scale.json entry line read alike.
  gated_keys() {
    awk -F'[:,}]' '{
      r = m = f = c = "-"
      for (i = 1; i < NF; ++i) {
        v = $(i + 1); gsub(/ /, "", v)
        if ($i ~ /"rounds_per_s"/) r = v
        if ($i ~ /"peak_rss_mb"/) m = v
        if ($i ~ /"records_per_frame"/) f = v
        if ($i ~ /"cut_edges"/) c = v
      }
      print r, m, f, c
    }'
  }

  # run_tier <block> — per entry, print "name" and the medians of its
  # gated keys over RUNS runs, or "name - - - -" when a run printed no
  # record.
  run_tier() {
    local -n entries="${1^^}_TIER"
    local entry name args run
    for entry in "${entries[@]}"; do
      name=${entry%%|*}
      args=${entry#*|}
      for ((run = 0; run < RUNS; ++run)); do
        # shellcheck disable=SC2086
        "$BUILD_DIR/bench/bench_scale" $args --seed 1 --name "$name" || true
      done | gated_keys | awk -v name="$name" -v runs="$RUNS" '
        function median(col,   v, i, j, t) {
          for (i = 1; i <= NR; ++i) {
            v[i] = row[i, col]
            for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; --j) {
              t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
            }
          }
          return v[int((NR + 1) / 2)]
        }
        { for (c = 1; c <= 4; ++c) row[NR, c] = $c }
        END {
          if (NR < runs) { print name, "-", "-", "-", "-"; exit }
          print name, median(1), median(2), median(3), median(4)
        }'
    done
  }

  if [[ "$MODE" == *-update ]]; then
    echo "Fresh \"host\" line for $BASELINE:"
    echo "  \"host\": {\"nproc\": $(nproc), \"cpu\": \"$(uname -m)\"},"
    for block in "${BLOCKS[@]}"; do
      echo
      echo "Fresh \"$block\" block for $BASELINE (medians of $RUNS runs):"
      echo "  \"$block\": {"
      # The cluster rows also pin the exchange's batching and cut.
      run_tier "$block" | awk -v exchange="$([[ $block == cluster ]] && echo 1)" '{
        printf "    \"%s\": {\"rounds_per_s\": %s, \"peak_rss_mb\": %s", $1, $2, $3
        if (exchange) printf ", \"records_per_frame\": %s, \"cut_edges\": %s", $4, $5
        print "},"
      }' | sed '$ s/},$/}/'
      echo "  },"
    done
    exit 0
  fi

  echo "bench_gate: $MODE mode, medians of $RUNS runs (throughput tolerance=$(awk -v t="$TOLERANCE" 'BEGIN{printf "%.0f%%", t*100}'), peak RSS +20% vs $BASELINE)"
  STATUS=0
  for block in "${BLOCKS[@]}"; do
    while read -r name rps rss rpf cut; do
      # The baseline entry lives on one line: "name": {"rounds_per_s": R,
      # "peak_rss_mb": M[, "records_per_frame": F, "cut_edges": C]}. A key
      # the entry does not carry reads "-" and is not gated.
      read -r base_rps base_rss base_rpf base_cut \
        < <(grep -F "\"$name\":" "$BASELINE" | head -n 1 | gated_keys) || true
      if [[ "${base_rps:--}" == - || "${base_rss:--}" == - ]]; then
        echo "bench_gate: FAIL  $name missing from $BASELINE" >&2
        STATUS=1
        continue
      fi
      if [[ "$rps" == - ]]; then
        echo "bench_gate: FAIL  $name  a bench_scale run printed no record" >&2
        STATUS=1
        continue
      fi
      # cut_edges is deterministic for a fixed (topology, seed, shards,
      # shard map), so any increase is a partitioner regression, not
      # noise — gate it exactly.
      verdict=$(awk -v rps="$rps" -v rss="$rss" -v rpf="$rpf" -v cut="$cut" \
                    -v brps="$base_rps" -v brss="$base_rss" \
                    -v brpf="$base_rpf" -v bcut="$base_cut" \
                    -v t="$TOLERANCE" 'BEGIN {
        slow = rps < brps / (1 + t)
        fat = rss > brss * 1.2  # BENCHMARK.json peak_rss_mb bound
        unbatched = brpf != "-" && brpf > 1 && rpf <= 1
        cutworse = bcut != "-" && cut > bcut + 0
        printf "%s rps=%.3g(min %.3g) rss=%.4gMB(max %.4g)",
               (slow || fat || unbatched || cutworse ? "FAIL" : "ok"),
               rps, brps / (1 + t), rss, brss * 1.2
        if (brpf != "-") printf " rpf=%.3g(base %.3g)", rpf, brpf
        if (bcut != "-") printf " cut=%d(max %d)", cut, bcut
      }')
      if [[ "$verdict" == FAIL* ]]; then
        echo "bench_gate: FAIL  $name  ${verdict#FAIL }" >&2
        STATUS=1
      else
        echo "bench_gate: ok    $name  ${verdict#ok }"
      fi
    done < <(run_tier "$block")
  done

  if [[ "$STATUS" -ne 0 ]]; then
    echo "bench_gate: REGRESSION — throughput, memory, batching or cut moved past its bound." >&2
    echo "bench_gate: if intentional and signed off, refresh $BASELINE with" >&2
    echo "bench_gate: 'scripts/bench_gate.sh --${MODE%-full}-update'." >&2
    exit 1
  fi
  echo "bench_gate: block(s) ${BLOCKS[*]} within bounds of $BASELINE (throughput $(awk -v t="$TOLERANCE" 'BEGIN{printf "%.0f%%", t*100}'), peak RSS +20%)."
  exit 0
fi

BASELINE=${BASELINE:-BENCH_hotpath.json}

REPS=3
MIN_TIME=0.2
TOLERANCE=${DDC_BENCH_TOLERANCE:-0.25}
if [[ "$MODE" == smoke ]]; then
  REPS=1
  MIN_TIME=0.05
  TOLERANCE=${DDC_BENCH_TOLERANCE:-2.0}
fi

# Always rebuild: a stale binary would benchmark old code.
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target micro_ops -j "$(nproc)"

# The gated kernel set IS the set of keys in the baseline's "gate"
# block: the --benchmark_filter is derived from those keys (exact,
# anchored alternation), so a gate entry can never silently drift out
# of the benchmark run. To gate a new kernel, add its key to the gate
# block (any placeholder value) and run --update for the real baseline.
FILTER=$(awk '
  /"gate": *\{/ { in_gate = 1; next }
  in_gate && /\}/ { in_gate = 0 }
  in_gate && /":/ {
    line = $0
    sub(/^[^"]*"/, "", line)
    sub(/".*$/, "", line)
    names = names (names == "" ? "" : "|") line
  }
  END { print "^(" names ")$" }
' "$BASELINE")
if [[ "$FILTER" == '^()$' ]]; then
  echo "bench_gate: no gate keys found in $BASELINE" >&2
  exit 2
fi

BENCH_ARGS=(
  "--benchmark_filter=$FILTER"
  "--benchmark_min_time=$MIN_TIME"
  "--benchmark_format=json"
)
if [[ "$REPS" -gt 1 ]]; then
  BENCH_ARGS+=(
    "--benchmark_repetitions=$REPS"
    "--benchmark_report_aggregates_only=true"
  )
fi

echo "bench_gate: $MODE mode (reps=$REPS min_time=${MIN_TIME}s tolerance=+$(awk -v t="$TOLERANCE" 'BEGIN{printf "%.0f%%", t*100}'))"
RESULT_JSON=$("$BUILD_DIR/bench/micro_ops" "${BENCH_ARGS[@]}" 2>/dev/null)

# Emit "name real_time" per gated kernel. With repetitions we read the
# _median aggregate; single-rep runs report plain names.
measured() {
  printf '%s\n' "$RESULT_JSON" | awk -v reps="$REPS" '
    /"name":/ {
      name = $2
      gsub(/[",]/, "", name)
    }
    /"real_time":/ {
      rt = $2
      gsub(/,/, "", rt)
      if (reps > 1) {
        if (sub(/_median$/, "", name)) print name, rt
      } else {
        print name, rt
      }
    }'
}

if [[ "$MODE" == update ]]; then
  echo
  echo 'Fresh "gate" block (units match BENCH_hotpath.json):'
  echo '  "gate": {'
  measured | awk '{printf "    \"%s\": %g,\n", $1, $2}' | sed '$ s/,$//'
  echo '  },'
  exit 0
fi

# Compare against the baseline. The baseline "gate" object has one
# "name": value pair per line.
STATUS=0
while read -r name actual; do
  baseline=$(awk -v key="\"$name\":" '
    /"gate": *\{/ { in_gate = 1 }
    in_gate && /\}/ && !/\{/ { in_gate = 0 }
    in_gate && index($0, key) {
      v = $NF
      gsub(/,/, "", v)
      print v
    }' "$BASELINE")
  if [[ -z "$baseline" ]]; then
    echo "bench_gate: FAIL  $name missing from $BASELINE" >&2
    STATUS=1
    continue
  fi
  verdict=$(awk -v a="$actual" -v b="$baseline" -v t="$TOLERANCE" 'BEGIN {
    limit = b * (1 + t)
    printf "%s %.4g %.4g %.3fx", (a > limit ? "FAIL" : "ok"), a, limit, a / b
  }')
  read -r tag got limit ratio <<<"$verdict"
  if [[ "$tag" == FAIL ]]; then
    echo "bench_gate: FAIL  $name  median=$got > limit=$limit (${ratio} of baseline $baseline)" >&2
    STATUS=1
  else
    echo "bench_gate: ok    $name  median=$got  limit=$limit  (${ratio} of baseline)"
  fi
done < <(measured)

if [[ "$STATUS" -ne 0 ]]; then
  echo "bench_gate: REGRESSION — a gated hot-path kernel slowed past the tolerance." >&2
  echo "bench_gate: if the slowdown is intentional and signed off, refresh the" >&2
  echo "bench_gate: baseline with 'scripts/bench_gate.sh --update'." >&2
  exit 1
fi
echo "bench_gate: all gated kernels within +$(awk -v t="$TOLERANCE" 'BEGIN{printf "%.0f%%", t*100}') of $BASELINE."
