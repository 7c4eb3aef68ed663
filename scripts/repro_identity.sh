#!/usr/bin/env bash
# "Paper outputs unchanged" as a command: diff what `repro` prints and
# logs at a parent commit against the working tree.
#
#   scripts/repro_identity.sh [--parent <ref>] [--scale N] [--dir <scratch>]
#
# Unpacks the parent (`git archive <ref>`, default HEAD) under the
# scratch directory, builds both sides `--release` into target
# directories of their own, and on each side runs
#
#   repro all --scale N                     (default N = 2000)
#   repro spoof-matrix --stack --scale N
#   repro all --scale N --backend wire:2    (the crawl over loopback DNS)
#   repro trends --scale N                  (churn epochs over the live zone)
#   repro trends --scale N --backend wire:2 (the same epochs over the fleet)
#
# `trends` is not part of `all`, so it runs on its own, once per
# transport: the wire run re-crawls each epoch's edits through the one
# fleet the run spawned.
#
# with the experiment log written next to the captured stdout. Timing
# lines are stripped before comparing: `[throughput]` lines, `done in`,
# parenthesised durations such as `(834.5ms)`, evaluations per second
# (`(123456/s,`) and the `wrote <path>` line. The wire run's `[wire]`
# line keeps what the population fixes — `datagrams`, `retries`,
# `temp_errors`, `fleet_udp` and the rest — and loses `coalesced` and
# `cache_hit`, which move with worker scheduling: a question asked by
# two workers at once is one coalesced join, asked a moment apart it is
# one cache hit. For the same reason the spoof-matrix summary loses the
# figure after `verdict-cache hit rate`: two workers that miss the same
# (domain, ip, budget) cell both count a miss before one insert wins, so
# the ratio moves with scheduling (94.7 % in one run, 94.8 % in the
# next, on an unchanged tree). Prints the unified diff and exits with
# diff's status: 0 when every artifact and every experiment row is
# byte-identical.
#
# The scratch directory defaults to .bench_build/identity (ignored by git).
set -euo pipefail
cd "$(dirname "$0")/.."

parent="HEAD"
scale=2000
dir=".bench_build/identity"
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent="$2"; shift 2 ;;
        --scale) scale="$2"; shift 2 ;;
        --dir) dir="$2"; shift 2 ;;
        *) echo "repro_identity.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
rev="$(git rev-parse --short "$parent")"
rm -rf "$dir/parent-src" "$dir/parent" "$dir/change"
mkdir -p "$dir/parent-src" "$dir/parent" "$dir/change"
git archive "$parent" | tar -x -C "$dir/parent-src"

echo "== building parent ($rev)" >&2
(cd "$dir/parent-src" && CARGO_TARGET_DIR="$dir/parent-target" cargo build --release --offline --quiet --bin repro)
echo "== building change (working tree)" >&2
CARGO_TARGET_DIR="$dir/change-target" cargo build --release --offline --quiet --bin repro

strip_timing() {
    grep -v -e '\[throughput\]' -e '^done in ' -e '^wrote ' \
        | sed -E -e 's/\([0-9.]+(ns|µs|us|ms|s)\)/(…)/g' -e 's/\([0-9]+\/s,/(…\/s,/g' \
            -e '/^\[wire\]/s/ (coalesced|cache_hit)=[0-9.]+%//g' \
            -e 's/verdict-cache hit rate [0-9.]+ %/verdict-cache hit rate … %/'
}

for side in parent change; do
    bin="$dir/$side-target/release/repro"
    out="$dir/$side"
    echo "== running $side: all, spoof-matrix --stack, all --backend wire:2, trends, trends --backend wire:2 at scale 1:$scale" >&2
    "$bin" all --scale "$scale" --out "$out/all.md" | strip_timing > "$out/all.txt"
    "$bin" spoof-matrix --stack --scale "$scale" --out "$out/stack.md" | strip_timing > "$out/stack.txt"
    "$bin" all --scale "$scale" --backend wire:2 --out "$out/wire.md" | strip_timing > "$out/wire.txt"
    "$bin" trends --scale "$scale" --out "$out/trends.md" | strip_timing > "$out/trends.txt"
    "$bin" trends --scale "$scale" --backend wire:2 --out "$out/trends-wire.md" | strip_timing > "$out/trends-wire.txt"
done

status=0
for file in all.txt all.md stack.txt stack.md wire.txt wire.md \
    trends.txt trends.md trends-wire.txt trends-wire.md; do
    diff -u --label "parent/$file" --label "change/$file" \
        "$dir/parent/$file" "$dir/change/$file" || status=$?
done
[ "$status" -eq 0 ] && echo "repro outputs identical to $rev at scale 1:$scale" >&2
exit "$status"
