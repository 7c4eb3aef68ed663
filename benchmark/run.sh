#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One run of one workload: every metric by name and unit on
#       standard error, the result object as the last line of standard
#       output. This is the `command` of BENCHMARK.json.
#
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>]
#       Every workload, each in its own process (peak RSS is per
#       process); the result lines are merged into
#       benchmark/out/results.json (results-trace.json with --trace 1).
#
# Builds with `cargo build --release --offline` into $CARGO_TARGET_DIR
# when set, benchmark/target otherwise. Fails, printing no result, when
# the repo's crates are not next to this directory.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/spf-benchmark"

if [ "${1:-}" = "--build-only" ]; then
    echo "$bin"
    exit 0
fi

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [ "${args[i]}" = "--trace" ]; then
        trace="${args[i + 1]:-0}"
    fi
done
mkdir -p benchmark/out
merged="benchmark/out/results.json"
[ "$trace" = "1" ] && merged="benchmark/out/results-trace.json"

workloads=(crawl-memory crawl-wire matrix-cached matrix-compiled serve-hot serve-cold churn-epochs)
{
    echo "{"
    for ((i = 0; i < ${#workloads[@]}; i++)); do
        w="${workloads[i]}"
        line="$("$bin" --workload "$w" "$@" | tail -n 1)"
        sep=","
        [ $((i + 1)) -eq ${#workloads[@]} ] && sep=""
        echo "  \"$w\": $line$sep"
    done
    echo "}"
} >"$merged"
echo "merged results: $merged" >&2
