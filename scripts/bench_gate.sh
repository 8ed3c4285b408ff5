#!/usr/bin/env bash
# Benchmark regression gate for the hot-path kernels.
#
# Runs the gated subset of bench/micro_ops (greedy partition, EM E-step
# scoring, full EM reduction, classifier exchange, moment matching,
# expected-log-pdf, 512-node GM round) and compares each kernel's median
# real_time against the committed baseline in BENCH_hotpath.json. Fails
# if any gated kernel is more than TOLERANCE above its baseline.
#
# Also gates the SoA scale engine (bench/bench_scale) against
# BENCH_scale.json: gossip throughput (rounds/s) and peak RSS per
# (protocol, topology, node-count, thread-count) configuration. The scale gate fails
# if throughput drops below baseline/(1+tolerance) or peak RSS rises
# above baseline*(1+tolerance).
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
#   scripts/bench_gate.sh --scale        # 10k-node scale tier vs
#                                        # BENCH_scale.json "gate" block
#   scripts/bench_gate.sh --scale-full   # adds the 100k and 1M tiers
#                                        # ("full" block; ~2 min)
#   scripts/bench_gate.sh --scale-update # print fresh BENCH_scale.json
#                                        # "gate"/"full" blocks
#   scripts/bench_gate.sh --cluster        # sharded-cluster tier vs
#                                          # BENCH_cluster.json
#   scripts/bench_gate.sh --cluster-update # print a fresh
#                                          # BENCH_cluster.json block
#
# Environment:
#   BUILD_DIR      build tree holding bench/micro_ops (default: build;
#                  the top-level CMakeLists defaults to RelWithDebInfo,
#                  so the default tree is already optimized)
#   BASELINE       baseline file (default: BENCH_hotpath.json, or
#                  BENCH_scale.json in the --scale* modes)
#   DDC_BENCH_TOLERANCE  override the regression tolerance, e.g. 0.25
#                  means "fail if median > baseline * 1.25"
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
# Sharded-cluster gate (--cluster / --cluster-update).
#
# One bench_cluster process per configuration (loopback fabric, S shard
# engines in one process). Gates throughput and peak RSS like the scale
# gate, plus the batching invariant: multi-shard entries whose baseline
# packs more than one message per batch frame must keep doing so — a
# frame-per-message regression defeats the point of the batch exchange.
# ---------------------------------------------------------------------------
if [[ "$MODE" == cluster* ]]; then
  BASELINE=${BASELINE:-BENCH_cluster.json}
  TOLERANCE=${DDC_BENCH_TOLERANCE:-0.5}

  # Always rebuild: a stale binary would benchmark old code.
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target bench_cluster -j "$(nproc)"

  # name|bench_cluster arguments. Keep in sync with BENCH_cluster.json.
  # The geometric/ER pairs run once per partitioner: contiguous is
  # cut-pessimal there (ids carry no locality), so the edgecut entries
  # both gate the partitioner's cut and prove the throughput win.
  CLUSTER_TIER=(
    "centroid/grid/2048x4|--topology grid --nodes 2048 --shards 4 --rounds 50"
    "centroid/grid/2048x4-edgecut|--topology grid --nodes 2048 --shards 4 --rounds 50 --shard-map edgecut"
    "centroid/grid/2048x1|--topology grid --nodes 2048 --shards 1 --rounds 50"
    "centroid/ring/4096x8|--topology ring --nodes 4096 --shards 8 --rounds 30"
    "centroid/geometric/2048x4|--topology geometric --nodes 2048 --radius 0.05 --shards 4 --rounds 50"
    "centroid/geometric/2048x4-edgecut|--topology geometric --nodes 2048 --radius 0.05 --shards 4 --rounds 50 --shard-map edgecut"
    "centroid/er/2048x4|--topology er --nodes 2048 --er-prob 0.004 --shards 4 --rounds 50"
    "centroid/er/2048x4-edgecut|--topology er --nodes 2048 --er-prob 0.004 --shards 4 --rounds 50 --shard-map edgecut"
    "gm/grid/256x4|--protocol gm --topology grid --nodes 256 --shards 4 --rounds 50"
  )

  # run_cluster_tier — emit
  # "name rounds_per_s peak_rss_mb records_per_frame cut_edges".
  run_cluster_tier() {
    local entry name args line
    for entry in "$@"; do
      name=${entry%%|*}
      args=${entry#*|}
      # shellcheck disable=SC2086
      line=$("$BUILD_DIR/bench/bench_cluster" $args \
               --threads 0 --seed 1 --name "$name")
      echo "$line" | awk -F'[:,]' -v name="$name" '{
        for (i = 1; i < NF; ++i) {
          if ($i ~ /"rounds_per_s"/) rps = $(i + 1)
          if ($i ~ /"records_per_frame"/) rpf = $(i + 1)
          if ($i ~ /"cut_edges"/) cut = $(i + 1)
          if ($i ~ /"peak_rss_mb"/) { rss = $(i + 1); gsub(/}/, "", rss) }
        }
        print name, rps, rss, rpf, cut
      }'
    done
  }

  if [[ "$MODE" == cluster-update ]]; then
    echo
    echo "Fresh \"gate\" block for BENCH_cluster.json:"
    echo "  \"gate\": {"
    run_cluster_tier "${CLUSTER_TIER[@]}" | awk '{
      printf "    \"%s\": {\"rounds_per_s\": %s, \"peak_rss_mb\": %s, \"records_per_frame\": %s, \"cut_edges\": %s},\n",
             $1, $2, $3, $4, $5
    }' | sed '$ s/},$/}/'
    echo "  }"
    exit 0
  fi

  echo "bench_gate: cluster mode (tolerance=±$(awk -v t="$TOLERANCE" 'BEGIN{printf "%.0f%%", t*100}') vs $BASELINE)"
  STATUS=0
  while read -r name rps rss rpf cut; do
    base_rps=""
    base_rss=""
    base_rpf=""
    base_cut=""
    read -r base_rps base_rss base_rpf base_cut < <(awk -v key="\"$name\":" '
      index($0, key) {
        for (i = 1; i <= NF; ++i) {
          if ($i ~ /"rounds_per_s"/) { v = $(i + 1); gsub(/[,}]/, "", v); r = v }
          if ($i ~ /"peak_rss_mb"/) { v = $(i + 1); gsub(/[,}]/, "", v); m = v }
          if ($i ~ /"records_per_frame"/) { v = $(i + 1); gsub(/[,}]/, "", v); f = v }
          if ($i ~ /"cut_edges"/) { v = $(i + 1); gsub(/[,}]/, "", v); c = v }
        }
        print r, m, f, c
      }' "$BASELINE") || true
    if [[ -z "${base_rps:-}" || -z "${base_rss:-}" ]]; then
      echo "bench_gate: FAIL  $name missing from $BASELINE" >&2
      STATUS=1
      continue
    fi
    # cut_edges is deterministic for a fixed (topology, seed, shards,
    # partitioner), so any increase over the baseline is a partitioner
    # regression, not noise — gate it exactly.
    verdict=$(awk -v rps="$rps" -v rss="$rss" -v rpf="$rpf" -v cut="$cut" \
                  -v brps="$base_rps" -v brss="$base_rss" \
                  -v brpf="${base_rpf:-0}" -v bcut="${base_cut:--1}" \
                  -v t="$TOLERANCE" 'BEGIN {
      slow = rps < brps / (1 + t)
      fat = rss > brss * (1 + t)
      unbatched = brpf > 1 && rpf <= 1
      cutworse = bcut >= 0 && cut > bcut
      printf "%s rps=%.3g(min %.3g) rss=%.4gMB(max %.4g) rpf=%.3g cut=%d(max %d)",
             (slow || fat || unbatched || cutworse ? "FAIL" : "ok"),
             rps, brps / (1 + t), rss, brss * (1 + t), rpf, cut, bcut
    }')
    if [[ "$verdict" == FAIL* ]]; then
      echo "bench_gate: FAIL  $name  ${verdict#FAIL }" >&2
      STATUS=1
    else
      echo "bench_gate: ok    $name  ${verdict#ok }"
    fi
  done < <(run_cluster_tier "${CLUSTER_TIER[@]}")

  if [[ "$STATUS" -ne 0 ]]; then
    echo "bench_gate: CLUSTER REGRESSION — throughput, memory or batching moved past tolerance." >&2
    echo "bench_gate: if intentional and signed off, refresh BENCH_cluster.json with" >&2
    echo "bench_gate: 'scripts/bench_gate.sh --cluster-update'." >&2
    exit 1
  fi
  echo "bench_gate: sharded cluster within ±$(awk -v t="$TOLERANCE" 'BEGIN{printf "%.0f%%", t*100}') of $BASELINE."
  exit 0
fi

# ---------------------------------------------------------------------------
# Scale-engine gate (--scale / --scale-full / --scale-update).
#
# One bench_scale process per configuration so ru_maxrss is a clean
# per-configuration high-water mark. The 10⁵/10⁶-node entries pass
# explicit sparse --radius/--er-prob: the TopologySpec density defaults
# are sized for paper-scale graphs, not a million nodes.
# ---------------------------------------------------------------------------
if [[ "$MODE" == scale* ]]; then
  BASELINE=${BASELINE:-BENCH_scale.json}
  TOLERANCE=${DDC_BENCH_TOLERANCE:-0.5}

  # Always rebuild: a stale binary would benchmark old code.
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" --target bench_scale -j "$(nproc)"

  # name|bench_scale arguments. Keep in sync with BENCH_scale.json.
  # Every entry pins its thread count (the /tN key suffix and the
  # --threads argument agree), so a baseline taken on one host compares
  # like with like on another, and a multi-core regression shows up in
  # the t4 entries instead of being averaged into a host-sized default.
  SMOKE_TIER=(
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
    "centroid/er/100000/t4|--topology er --nodes 100000 --er-prob 0.00016 --rounds 10 --threads 4"
    "gm/ring/100000/t1|--protocol gm --topology ring --nodes 100000 --rounds 3 --threads 1"
    "gm/er/100000/t4|--protocol gm --topology er --nodes 100000 --er-prob 0.00016 --rounds 3 --threads 4"
    "centroid/ring/1000000/t1|--topology ring --nodes 1000000 --rounds 5 --threads 1"
    "centroid/grid/1000000/t1|--topology grid --nodes 1000000 --rounds 5 --threads 1"
    "centroid/geometric/1000000/t1|--topology geometric --nodes 1000000 --radius 0.0022 --rounds 5 --threads 1"
    "centroid/er/1000000/t1|--topology er --nodes 1000000 --er-prob 0.000016 --rounds 5 --threads 1"
  )

  # run_tier <entry>... — emit "name rounds_per_s peak_rss_mb" per entry.
  run_tier() {
    local entry name args line
    for entry in "$@"; do
      name=${entry%%|*}
      args=${entry#*|}
      # shellcheck disable=SC2086
      line=$("$BUILD_DIR/bench/bench_scale" $args \
               --engine soa --seed 1 --name "$name")
      echo "$line" | awk -F'[:,]' -v name="$name" '{
        for (i = 1; i < NF; ++i) {
          if ($i ~ /"rounds_per_s"/) rps = $(i + 1)
          if ($i ~ /"peak_rss_mb"/) { rss = $(i + 1); gsub(/}/, "", rss) }
        }
        print name, rps, rss
      }'
    done
  }

  if [[ "$MODE" == scale-update ]]; then
    echo "Fresh \"host\" line for BENCH_scale.json:"
    echo "  \"host\": {\"nproc\": $(nproc), \"cpu\": \"$(uname -m)\"},"
    for block in gate full; do
      if [[ "$block" == gate ]]; then
        rows=$(run_tier "${SMOKE_TIER[@]}")
      else
        rows=$(run_tier "${FULL_TIER[@]}")
      fi
      echo
      echo "Fresh \"$block\" block for BENCH_scale.json:"
      echo "  \"$block\": {"
      printf '%s\n' "$rows" | awk '{
        printf "    \"%s\": {\"rounds_per_s\": %s, \"peak_rss_mb\": %s},\n",
               $1, $2, $3
      }' | sed '$ s/},$/}/'
      echo "  },"
    done
    exit 0
  fi

  echo "bench_gate: scale mode=$MODE (tolerance=±$(awk -v t="$TOLERANCE" 'BEGIN{printf "%.0f%%", t*100}') vs $BASELINE)"
  ENTRIES=("${SMOKE_TIER[@]}")
  if [[ "$MODE" == scale-full ]]; then
    ENTRIES+=("${FULL_TIER[@]}")
  fi

  STATUS=0
  while read -r name rps rss; do
    # The baseline entry lives on one line: "name": {"rounds_per_s": R,
    # "peak_rss_mb": M}. Absent entries fail the gate.
    base_rps=""
    base_rss=""
    read -r base_rps base_rss < <(awk -v key="\"$name\":" '
      index($0, key) {
        for (i = 1; i <= NF; ++i) {
          if ($i ~ /"rounds_per_s"/) { v = $(i + 1); gsub(/[,}]/, "", v); r = v }
          if ($i ~ /"peak_rss_mb"/) { v = $(i + 1); gsub(/[,}]/, "", v); m = v }
        }
        print r, m
      }' "$BASELINE") || true
    if [[ -z "${base_rps:-}" || -z "${base_rss:-}" ]]; then
      echo "bench_gate: FAIL  $name missing from $BASELINE" >&2
      STATUS=1
      continue
    fi
    verdict=$(awk -v rps="$rps" -v rss="$rss" -v brps="$base_rps" \
                  -v brss="$base_rss" -v t="$TOLERANCE" 'BEGIN {
      slow = rps < brps / (1 + t)
      fat = rss > brss * (1 + t)
      printf "%s rps=%.3g(min %.3g) rss=%.4gMB(max %.4g)",
             (slow || fat ? "FAIL" : "ok"), rps, brps / (1 + t),
             rss, brss * (1 + t)
    }')
    if [[ "$verdict" == FAIL* ]]; then
      echo "bench_gate: FAIL  $name  ${verdict#FAIL }" >&2
      STATUS=1
    else
      echo "bench_gate: ok    $name  ${verdict#ok }"
    fi
  done < <(run_tier "${ENTRIES[@]}")

  if [[ "$STATUS" -ne 0 ]]; then
    echo "bench_gate: SCALE REGRESSION — throughput or memory moved past tolerance." >&2
    echo "bench_gate: if intentional and signed off, refresh BENCH_scale.json with" >&2
    echo "bench_gate: 'scripts/bench_gate.sh --scale-update'." >&2
    exit 1
  fi
  echo "bench_gate: scale engine within ±$(awk -v t="$TOLERANCE" 'BEGIN{printf "%.0f%%", t*100}') of $BASELINE."
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
