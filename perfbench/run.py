#!/usr/bin/env python3
"""Build and run the round-engine benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload centroid-er-100k-t4 --seed 1 \
        --seconds 12 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --record-digests 1,2  # refresh perfbench/digests.json

Run from anywhere inside a checkout. The script configures and builds
perfbench/ (which pulls in ../src) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, runs the ddc_perfbench binary, checks its
outputs against perfbench/digests.json and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. Build logs and progress go to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BINARY_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not (out / "CMakeCache.txt").is_file() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for command in (configure,
                    ["cmake", "--build", str(out), "--target", "ddc_perfbench",
                     "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(command), code=3)
    return out / "ddc_perfbench"


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the library sources (a driver checkout carries no .git)."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {BINARY_TIMEOUT_S} s", code=4)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"{workload}: ddc_perfbench exited with {result.returncode}", code=4)
    return json.loads(lines[-1])


def expected_for(digests, workload, seed):
    return digests.get("workloads", {}).get(workload, {}).get(str(seed))


def run_one(binary, spec, digests, workload, seed, seconds, trace):
    """One workload run; returns (record, metrics with units)."""
    expected = expected_for(digests, workload, seed)
    extra = []
    if expected:
        def joined(key):
            return ",".join(str(v) for v in expected[key])
        extra += ["--expect-digest", joined("digests"),
                  "--expect-rounds", joined("rounds")]
        if "wire_bytes" in expected:
            extra += ["--expect-wire-bytes", joined("wire_bytes")]
    if trace:
        spans = build_dir().parent / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        extra += ["--spans-out", str(spans)]
    raw = run_binary(binary, workload, seed, seconds, trace, extra)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in raw["metrics"]:
            fail(f"{workload}: metric {metric['name']} missing", code=4)
        metrics[metric["name"]] = {"value": raw["metrics"][metric["name"]],
                                   "unit": metric["unit"]}
    record = {key: raw[key] for key in (
        "workload", "seed", "threads", "shards", "link_loss", "nodes", "edges",
        "eps", "simd", "build_type", "episodes", "timed_rounds",
        "tail_percentile", "setup_samples", "attempted", "failed", "failures",
        "digests", "rounds", "wire_bytes", "episode_s", "seconds")}
    record["trace"] = trace
    record["digest_recorded"] = expected is not None
    record["nproc"] = len(os.sched_getaffinity(0))
    return record, metrics


def print_table(record, metrics):
    print(f"# {record['workload']} seed {record['seed']} "
          f"(threads {record['threads']}, shards {record['shards']}, "
          f"nproc {record['nproc']}, simd {record['simd']}, "
          f"{record['build_type']}, {record['commit']})")
    for name, metric in metrics.items():
        print(f"  {name:28} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  checks: attempted {record['attempted']}, failed {record['failed']}"
          f"{'' if record['digest_recorded'] else ' (no recorded digest for this seed)'}")
    for reason in record["failures"]:
        print(f"  failure: {reason}")


def record_digests(binary, spec, seeds):
    """One cycle per seed, recording each sub-seed's final digest, rounds
    to ε and wire bytes. The cluster's digests come from a LOSSLESS run,
    so every lossy run that matches them shows that link loss leaves the
    final state unchanged."""
    path = BENCH_DIR / "digests.json"
    digests = json.loads(path.read_text()) if path.is_file() else {}
    table = digests.setdefault("workloads", {})
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            run = run_binary(binary, workload, seed, 0, 0, ["--one-cycle", "1"])
            if run["failed"]:
                fail(f"{workload} seed {seed}: {run['failures']}", code=5)
            entry = {key: run[key] for key in ("digests", "rounds")}
            if run["shards"] > 1:
                entry["wire_bytes"] = run["wire_bytes"]
            if run["link_loss"] > 0:
                lossless = run_binary(binary, workload, seed, 0, 0,
                                      ["--one-cycle", "1", "--link-loss", "0"])
                if lossless["digests"] != run["digests"]:
                    fail(f"{workload} seed {seed}: lossy digests {run['digests']} "
                         f"!= lossless {lossless['digests']}", code=5)
                entry["digests"] = lossless["digests"]
            table.setdefault(workload, {})[str(seed)] = entry
            print(f"{workload} seed {seed}: {entry}", file=sys.stderr)
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="comma-separated seeds to record, then exit")
    args = parser.parse_args()

    spec = load_spec()
    binary = build()
    if args.record_digests:
        record_digests(binary, spec,
                       [int(s) for s in args.record_digests.split(",")])
        return

    path = BENCH_DIR / "digests.json"
    digests = json.loads(path.read_text()) if path.is_file() else {}
    seed = args.seed if args.seed is not None else digests.get("default_seed", 1)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload '{args.workload}' (one of: {', '.join(names)}, all)")
    selected = names if args.workload == "all" else [args.workload]

    commit = source_id()
    attempted = failed = 0
    all_metrics = {}
    for workload in selected:
        record, metrics = run_one(binary, spec, digests, workload, seed,
                                  seconds, args.trace)
        record["commit"] = commit
        print(json.dumps({"record": record}))
        print_table(record, metrics)
        attempted += record["attempted"]
        failed += record["failed"]
        if len(selected) == 1:
            all_metrics = metrics
        else:
            all_metrics.update({f"{workload}.{k}": v for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))


if __name__ == "__main__":
    main()
