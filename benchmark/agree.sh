#!/usr/bin/env bash
# Do two sets of runs of the same code agree within the benchmark's own
# bounds?
#
#   benchmark/agree.sh [--runs N] [--seconds S] [--workload NAME]...
#
# Builds once, then makes two sets of N runs (default 3) of every
# workload (or the named ones), alternating workloads within a set and
# using a different seed for each run of a workload, as the acceptance
# pipeline does. For every end-to-end metric x workload it prints both
# medians, their relative difference, and the spread of all 2N values
# (distance between the first and third quartile as a share of the
# median). Exits 1 if a median moved for the worse by more than the
# metric's bound, a spread exceeds the bound, a run was incorrect, or a
# count that must repeat for a seed did not.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=3
seconds=""
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        *) echo "agree.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

bin="$(benchmark/run.sh --build-only)"
out=benchmark/out/agree
rm -rf "$out"
mkdir -p "$out"

exec python3 - "$bin" "$out" "$runs" "$seconds" "${workloads[@]}" <<'PY'
import json, statistics, subprocess, sys

binary, out, runs, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
workloads = sys.argv[5:] or [w["name"] for w in spec["workloads"]]
metrics = {m["name"]: m for m in spec["end_to_end"]}

def run(workload, seed):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True, check=True)
    counts = {line.split("count ", 1)[1] for line in done.stderr.splitlines() if " count " in line}
    return json.loads(done.stdout.splitlines()[-1]), counts

sets, bad = [], []
for which in range(2):
    values = {w: {m: [] for m in metrics} for w in workloads}
    for i in range(runs):
        for w in workloads:                    # alternate workloads within a set
            seed = 1000 + i                    # same seeds in both sets
            result, counts = run(w, seed)
            with open(f"{out}/set{which}-{w}-{seed}.json", "w") as f:
                json.dump({"result": result, "counts": sorted(counts)}, f)
            if not result["correct"] or result["failed"]:
                bad.append(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"set {which} run {i} {w}: " + " ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
    sets.append(values)

def spread(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

print(f"\n{'workload':<16} {'metric':<14} {'median A':>13} {'median B':>13} {'B vs A':>8} {'spread':>8} {'bound':>6}")
for w in workloads:
    for m, meta in metrics.items():
        a, b = statistics.median(sets[0][w][m]), statistics.median(sets[1][w][m])
        worse = (b - a) / a if meta["better"] == "lower" else (a - b) / a
        s = spread(sets[0][w][m] + sets[1][w][m])
        flag = ""
        if worse > meta["bound"]:
            flag = "  MEDIAN MOVED"
            bad.append(f"{w} {m}: second median worse by {worse:.1%} (bound {meta['bound']:.0%})")
        if m != "setup_s" and s > meta["bound"]:
            flag += "  SPREAD"
            bad.append(f"{w} {m}: spread {s:.1%} exceeds bound {meta['bound']:.0%}")
        elif m != "setup_s" and s > meta["bound"] / 3:
            flag += "  (spread above a third of the bound)"
        print(f"{w:<16} {m:<14} {a:>13.5g} {b:>13.5g} {worse:>+8.1%} {s:>8.1%} {meta['bound']:>6.0%}{flag}")

# Counts that depend only on the seed must repeat between the sets.
import glob, os
for path in sorted(glob.glob(f"{out}/set0-*.json")):
    other = path.replace("set0-", "set1-")
    a = {c for c in json.load(open(path))["counts"] if c.split(" = ")[0] in
         ("domains", "vantages", "cells", "plan_digest", "open_plan_digest", "output_digest")}
    b = set(json.load(open(other))["counts"])
    if not a <= b:
        bad.append(f"{os.path.basename(path)}: exact counts differ between the sets: {sorted(a - b)}")

if bad:
    print("\nDISAGREE:\n  " + "\n  ".join(bad))
    sys.exit(1)
print("\nagree: every median within its bound, every spread within its bound, failed_ops = 0")
PY
