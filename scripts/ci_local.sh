#!/usr/bin/env bash
# The full CI matrix, runnable locally — one command that exercises
# exactly what .github/workflows/ci.yml runs, so the tier-1 verify and CI
# cannot drift:
#
#   [build-and-test]  cargo build --release; compiler differential
#                     suites (fail-fast); cargo test -q;
#                     cargo build --benches --examples; docs smoke
#   [lint]            cargo clippy --all-targets -- -D warnings;
#                     cargo fmt --check
#   [benchmark]       the BENCHMARK.json crate builds and its tests pass
#                     against this tree (cd benchmark && cargo build
#                     --release --offline && cargo test --offline),
#                     every workload runs correct with 0 failed
#                     operations (scripts/benchmark_smoke.sh, ~1 min),
#                     and serve-hot once more at --seconds 10 (the open
#                     loop is 0.8 s of a 2 s run: the smoke cannot see a
#                     burst the listener dropped)
#   [bench-smoke]     scripts/bench_guard.sh (quick benches + regression
#                     gate against the committed BENCH_*.json)
#
# Pass --fast to skip the bench-smoke stage (the slowest one) during
# tight edit loops; CI always runs all four.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
    esac
done

echo "== [build-and-test] cargo build --release"
cargo build --release

# The compiler's fast differential suites first: a verdict-identity or
# residue-classification regression fails here in seconds instead of
# minutes into the full pass (compiler_stress, the socket-level grid,
# rides inside `cargo test -q` below).
echo "== [build-and-test] compiler differential suites"
cargo test -q --test proptest_compiler --test rfc_conformance

echo "== [build-and-test] cargo test -q"
cargo test -q

echo "== [build-and-test] cargo build --benches --examples"
cargo build --benches --examples

echo "== [build-and-test] docs smoke"
scripts/docs_smoke.sh

echo "== [lint] cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== [lint] cargo fmt --check"
cargo fmt --check

# The benchmark crate is its own workspace path-depending on ../crates:
# a deletion that breaks its surface must fail here, not in the
# acceptance run.
echo "== [benchmark] cd benchmark && cargo build --release --offline && cargo test --offline"
(cd benchmark && cargo build --release --offline && cargo test --offline)

# Two of three recent PRs died in the acceptance run on a workload that
# no longer printed `correct: true`; this is that check, locally.
echo "== [benchmark] scripts/benchmark_smoke.sh"
scripts/benchmark_smoke.sh

# Three PRs in a row died on `outputs_incorrect` from a workload the 2 s
# smoke passed: a datagram lost from the open loop's catch-up burst is a
# failed operation, and the open loop only gets going in a full-length
# run.
echo "== [benchmark] serve-hot at --seconds 10"
line=$(bash benchmark/run.sh --workload serve-hot --seed 7 --seconds 10 --trace 0 2>/dev/null | tail -n 1)
if grep -q '"correct": true' <<<"$line" && grep -q '"failed": 0[,}]' <<<"$line"; then
    echo "ok   serve-hot (10 s)"
else
    echo "FAIL serve-hot (10 s): ${line:-no result line}" >&2
    exit 1
fi

# A performance claim is made with scripts/benchmark_pairs.sh <workload>
# (alternating parent/change pairs on fresh seeds); it is not a gate.

if [ "$FAST" = "1" ]; then
    echo "OK: build-and-test + lint + benchmark green (bench-smoke skipped via --fast)"
else
    echo "== [bench-smoke] scripts/bench_guard.sh"
    scripts/bench_guard.sh
    echo "OK: full CI matrix green"
fi
