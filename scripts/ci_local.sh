#!/usr/bin/env bash
# The full CI matrix, runnable locally — one command that exercises
# exactly what .github/workflows/ci.yml runs, so the tier-1 verify and CI
# cannot drift:
#
#   [build-and-test]  cargo build --release; differential suites
#                     (fail-fast); cargo test -q --no-fail-fast; docs
#                     smoke
#                     (which also builds the examples)
#   [lint]            cargo clippy --all-targets -- -D warnings;
#                     cargo fmt --check; scripts/orphans.sh (fails on a
#                     public item no other file's production code names,
#                     unless allow-listed with a reason);
#                     scripts/testkit_dev_only.sh (no production crate
#                     depends on spf-testkit)
#   [benchmark]       the BENCHMARK.json crate builds and its tests pass
#                     against this tree (cd benchmark && cargo build
#                     --release --offline && cargo test --offline),
#                     every workload runs correct with 0 failed
#                     operations (scripts/benchmark_smoke.sh, ~1 min),
#                     and serve-hot once more at --seconds 10 (the open
#                     loop is 0.8 s of a 2 s run: the smoke cannot see a
#                     burst the listener dropped)
#
# Takes no arguments.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -eq 0 ] || { echo "usage: $0 (no arguments)" >&2; exit 2; }

echo "== [build-and-test] cargo build --release"
cargo build --release

# The fast differential suites first (ci.yml's "Differential suites"
# step runs the same list): a verdict-identity or
# residue-classification regression fails here in seconds instead of
# minutes into the full pass (compiler_stress, the socket-level grid,
# rides inside the full `cargo test` below). parse_identity pins the
# SPF parser's output byte for byte; alloc_budget holds the record read
# path to its allocation budget; fault_injection crawls a faulted zone
# in memory and over `wire:4` and compares the reports, and holds the
# walker, check_host, the compiler and the service to one answer per
# fetch failure (about 4 s); golden_artifacts holds every paper artifact,
# unstripped and at one and at four workers, to a committed digest (about
# 7 s) and is the one paper-output guard; spf-analyzer's unit tests pin every
# Figure 3 cause the walker records; spf-types' proptests hold every
# interval-set operation to a bit-vector model and Ipv6Set to Ipv4Set on
# a shared universe.
echo "== [build-and-test] differential suites"
cargo test -q --test proptest_compiler --test rfc_conformance --test proptest_auth
cargo test -q --test parse_identity --test alloc_budget --test fault_injection
cargo test -q --test golden_artifacts
cargo test -q -p spf-core --lib
cargo test -q -p spf-analyzer --lib
cargo test -q -p spf-types --lib
cargo test -q -p spf-types --test proptests

# --no-fail-fast: one failing test binary must not hide every suite
# after it.
echo "== [build-and-test] cargo test -q --no-fail-fast"
cargo test -q --no-fail-fast

echo "== [build-and-test] docs smoke"
scripts/docs_smoke.sh

echo "== [lint] cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== [lint] cargo fmt --check"
cargo fmt --check

echo "== [lint] scripts/orphans.sh"
scripts/orphans.sh

echo "== [lint] scripts/testkit_dev_only.sh"
scripts/testkit_dev_only.sh

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

# The one timing gate is scripts/benchmark_pairs.sh <workload>
# (alternating parent/change pairs on fresh seeds, judged against
# BENCHMARK.json's bounds); it needs a parent to compare with, so it is
# run per change, not here.

echo "OK: full CI matrix green"
