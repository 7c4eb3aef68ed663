#!/usr/bin/env bash
# Bench-regression gate (CI `bench-smoke` job, and part of ci_local.sh):
# re-run the quick-mode benches and compare their guard points against
# the committed BENCH_2.json / BENCH_3.json / BENCH_4.json / BENCH_5.json
# / BENCH_6.json / BENCH_7.json / BENCH_9.json / BENCH_10.json
# baselines. (BENCH_8.json is the committed record of the removed epoll
# reactor engine; nothing re-runs it.)
#
# Every bench report carries `quick_points` — a small fixed configuration
# matrix measured at quick scale with the same plain best-of-N loop in
# both full and quick runs — so a smoke run is directly comparable to the
# committed artifact. A configuration more than 30 % below its baseline
# fails the bench process (see `spf_bench::guard`); override the
# tolerance with BENCH_GUARD_TOLERANCE (a fraction, e.g. 0.5).
#
# Fresh quick artifacts land in target/bench_guard/ (the committed
# baselines at the repo root are never overwritten by this script).
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$(pwd)"
GUARD_DIR="$ROOT/target/bench_guard"
mkdir -p "$GUARD_DIR"

echo "== bench_guard: quick crawl_scaling vs committed BENCH_2.json"
BENCH_2_OUT="$GUARD_DIR/BENCH_2.json" \
BENCH_GUARD_BASELINE="$ROOT/BENCH_2.json" \
CRAWL_SCALING_QUICK=1 cargo bench --bench crawl_scaling

echo "== bench_guard: quick wire_throughput vs committed BENCH_3.json"
BENCH_3_OUT="$GUARD_DIR/BENCH_3.json" \
BENCH_GUARD_BASELINE="$ROOT/BENCH_3.json" \
WIRE_THROUGHPUT_QUICK=1 cargo bench --bench wire_throughput

echo "== bench_guard: quick overlap_scaling vs committed BENCH_4.json"
BENCH_4_OUT="$GUARD_DIR/BENCH_4.json" \
BENCH_GUARD_BASELINE="$ROOT/BENCH_4.json" \
OVERLAP_SCALING_QUICK=1 cargo bench --bench overlap_scaling

echo "== bench_guard: quick spoof_matrix_scaling vs committed BENCH_5.json"
BENCH_5_OUT="$GUARD_DIR/BENCH_5.json" \
BENCH_GUARD_BASELINE="$ROOT/BENCH_5.json" \
SPOOF_MATRIX_QUICK=1 cargo bench --bench spoof_matrix_scaling

echo "== bench_guard: quick service_throughput vs committed BENCH_6.json"
BENCH_6_OUT="$GUARD_DIR/BENCH_6.json" \
BENCH_GUARD_BASELINE="$ROOT/BENCH_6.json" \
SERVICE_QUICK=1 cargo bench --bench service_throughput

echo "== bench_guard: quick compiled_throughput vs committed BENCH_7.json"
BENCH_7_OUT="$GUARD_DIR/BENCH_7.json" \
BENCH_GUARD_BASELINE="$ROOT/BENCH_7.json" \
COMPILED_QUICK=1 cargo bench --bench compiled_throughput

echo "== bench_guard: quick churn_rescan vs committed BENCH_9.json"
BENCH_9_OUT="$GUARD_DIR/BENCH_9.json" \
BENCH_GUARD_BASELINE="$ROOT/BENCH_9.json" \
CHURN_RESCAN_QUICK=1 cargo bench --bench churn_rescan

echo "== bench_guard: quick auth_stack_scaling vs committed BENCH_10.json"
BENCH_10_OUT="$GUARD_DIR/BENCH_10.json" \
BENCH_GUARD_BASELINE="$ROOT/BENCH_10.json" \
AUTH_STACK_QUICK=1 cargo bench --bench auth_stack_scaling

echo "OK: quick throughput within tolerance of the committed baselines"
