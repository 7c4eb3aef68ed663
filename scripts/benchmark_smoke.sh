#!/usr/bin/env bash
# Correctness smoke over the benchmark: every workload BENCHMARK.json
# names, two seconds each, failing unless the result line — the last
# line of standard output — says `"correct": true` and `"failed": 0`.
# About a minute; an output regression (a body that stopped matching
# bare check_host, a dropped reply) fails here instead of in the
# acceptance run. Timings are not judged: two seconds measure nothing.
#
# benchmark/run.sh builds into $CARGO_TARGET_DIR or benchmark/target. A
# local build may rewrite benchmark/Cargo.lock; leave that out of a
# commit (`git checkout benchmark/Cargo.lock`) unless the PR is a
# benchmark-only one.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=$(sed -n 's/.*{"name": "\([a-z-]*\)", "why".*/\1/p' BENCHMARK.json)
[ -n "$workloads" ] || { echo "no workloads found in BENCHMARK.json" >&2; exit 1; }

# Build once, with the compiler's output visible.
bash benchmark/run.sh --build-only >/dev/null

for w in $workloads; do
    line=$(bash benchmark/run.sh --workload "$w" --seed 7 --seconds 2 --trace 0 2>/dev/null | tail -n 1)
    if grep -q '"correct": true' <<<"$line" && grep -q '"failed": 0[,}]' <<<"$line"; then
        echo "ok   $w"
    else
        echo "FAIL $w: ${line:-no result line}" >&2
        exit 1
    fi
done
echo "OK: every benchmark workload correct, 0 failed operations"
