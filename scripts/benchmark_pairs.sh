#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload — the rule
# ROADMAP sets for every performance claim.
#
#   scripts/benchmark_pairs.sh <workload> [--pairs N] [--seconds S]
#       [--parent <ref>] [--seed <first>] [--dir <scratch>]
#
# Builds the parent (`git archive <ref>`, default HEAD, unpacked into
# <scratch>/parent-src) and the change (this working tree, uncommitted
# edits and untracked files git does not ignore included, copied into
# <scratch>/change-src) into two target directories of their own. Both
# sides build from paths of equal length outside the checkout: one tree
# built in the checkout and under the scratch directory read
# `crawl-wire` about 5 % apart. Then it makes N pairs of runs (default
# 10, `--seconds` default BENCHMARK.json's `run_seconds`): pair i runs
# both sides on seed `first + i`, the parent first in even pairs and the
# change first in odd ones. `first` defaults to the clock, so no two
# invocations share seeds with each other or with development runs.
# Prints every run's five end-to-end metrics with `correct` and
# `failed`, then per metric both medians, the parent's quartiles, how
# many pairs the change won and a verdict: `REGRESSED` when the change
# median is worse than the parent median by more than the metric's
# BENCHMARK.json `bound` times the parent median, `ok` otherwise. Exits
# 1 if any metric regressed or fewer change runs than parent runs were
# correct with 0 failed. This is the repo's one timing gate; a claimed
# gain (the nine-in-ten rule) is still the reader's to check. Each run's
# standard error is kept in <scratch>/logs/<side>-<seed>.err; for a run
# that was not correct or failed operations, its path and last lines are
# printed below the run.
#
# The scratch directory defaults to .bench_build/pairs (ignored by git).
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,7p' "$0" >&2; exit 2; }
workload="$1"; shift
pairs=10
seconds=""
parent="HEAD"
first_seed="$(date +%s)"
dir=".bench_build/pairs"
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --parent) parent="$2"; shift 2 ;;
        --seed) first_seed="$2"; shift 2 ;;
        --dir) dir="$2"; shift 2 ;;
        *) echo "benchmark_pairs.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
grep -q "{\"name\": \"$workload\"" BENCHMARK.json \
    || { echo "benchmark_pairs.sh: BENCHMARK.json has no workload '$workload'" >&2; exit 2; }

mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
rm -rf "$dir/logs"
mkdir -p "$dir/logs"

rev="$(git rev-parse --short "$parent")"
rm -rf "$dir/parent-src" "$dir/change-src"
mkdir -p "$dir/parent-src" "$dir/change-src"
git archive "$parent" | tar -x -C "$dir/parent-src"
# Every file git tracks or would track, as it is on disk now; a tracked
# file deleted in the working tree is left out.
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
    | tar --null -T - -cf - | tar -x -C "$dir/change-src"
echo "== building parent ($rev)" >&2
parent_bin="$(CARGO_TARGET_DIR="$dir/parent-target" bash "$dir/parent-src/benchmark/run.sh" --build-only)"
echo "== building change (working tree)" >&2
change_bin="$(CARGO_TARGET_DIR="$dir/change-target" bash "$dir/change-src/benchmark/run.sh" --build-only)"

python3 - "$workload" "$pairs" "$seconds" "$first_seed" "$rev" "$parent_bin" "$change_bin" "$dir/logs" <<'PY'
import json, statistics, subprocess, sys

workload, pairs, seconds, first_seed, rev, parent_bin, change_bin, logs = sys.argv[1:9]
pairs, first_seed = int(pairs), int(first_seed)
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
bins = {"parent": parent_bin, "change": change_bin}

def tail(path, lines=20):
    with open(path, errors="replace") as f:
        return "".join(f.readlines()[-lines:])

def run(side, seed):
    err = f"{logs}/{side}-{seed}.err"
    with open(err, "w") as stderr:
        done = subprocess.run(
            [bins[side], "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, stderr=stderr, text=True)
    try:
        result = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"{side} seed {seed}: no result line (exit {done.returncode}); stderr in {err}:\n{tail(err)}")
    values = {name: result["metrics"][name]["value"] for name, _, _ in metrics}
    ok = result["correct"] and result["failed"] == 0
    print(f"pair {seed - first_seed:2d} seed {seed} {side:6s} "
          + " ".join(f"{name}={values[name]:.4g}" for name, _, _ in metrics)
          + f" correct={str(result['correct']).lower()} failed={result['failed']}", flush=True)
    if not ok:
        print(f"  {side} seed {seed} stderr ({err}), last lines:\n{tail(err)}", flush=True)
    return values, ok

print(f"{workload}: {pairs} pairs, --seconds {seconds}, seeds {first_seed}..{first_seed + pairs - 1}, "
      f"parent {rev}, change = working tree")
runs = {"parent": [], "change": []}
clean = {"parent": 0, "change": 0}
for i in range(pairs):
    for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
        values, ok = run(side, first_seed + i)
        runs[side].append(values)
        clean[side] += ok

print(f"\ncorrect with 0 failed: parent {clean['parent']}/{pairs}, change {clean['change']}/{pairs}")
failed = clean["change"] < clean["parent"]
print(f"{'metric':15s} {'parent median':>14s} {'parent q1..q3':>22s} {'change median':>14s} {'change/parent':>13s} {'change wins':>11s} verdict")
for name, better, bound in metrics:
    p = [r[name] for r in runs["parent"]]
    c = [r[name] for r in runs["change"]]
    wins = sum((b > a) if better == "higher" else (b < a) for a, b in zip(p, c))
    q = statistics.quantiles(p, n=4) if len(p) > 1 else [p[0]] * 3
    pm, cm = statistics.median(p), statistics.median(c)
    worse = (pm - cm) if better == "higher" else (cm - pm)
    regressed = worse > bound * abs(pm)
    failed |= regressed
    print(f"{name:15s} {pm:14.4g} {q[0]:10.4g}..{q[2]:<10.4g} {cm:14.4g} {cm / pm:13.3f} {wins:8d}/{pairs}"
          f"   {'REGRESSED' if regressed else 'ok'} (bound {bound:g})")
sys.exit(1 if failed else 0)
PY
