#!/usr/bin/env bash
# Manifest/docs health smoke check (CI-runnable):
#  1. `cargo doc --no-deps` must emit zero warnings — every first-party
#     crate declares #![warn(missing_docs)], so an undocumented public
#     item anywhere fails this check.
#  2. The *whole workspace* is additionally held to a hard gate: with
#     RUSTDOCFLAGS="--deny missing_docs", missing docs on any public item
#     of any workspace crate — the ten spf-* crates, the façade, and the
#     vendored stand-ins — are a build error, not a grep.
#  3. The set-algebra doctests (IpSet / CoverageMap rustdoc
#     examples) must run, so the examples stay executable, not decorative.
#  4. Every example must build.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo doc --no-deps (expecting zero warnings)"
doc_log=$(cargo doc --no-deps 2>&1) || { echo "$doc_log"; exit 1; }
if echo "$doc_log" | grep -q "^warning"; then
    echo "$doc_log" | grep -B1 -A6 "^warning"
    echo "FAIL: cargo doc emitted warnings (missing docs or bad intra-doc links)"
    exit 1
fi

echo "== missing-docs hard gate, workspace-wide (--deny missing_docs)"
RUSTDOCFLAGS="--deny missing_docs" cargo doc --no-deps --workspace \
    --target-dir target/docs-gate

echo "== doctests on the spf-types public API (cargo test --doc)"
cargo test -q --doc -p spf-types -p lazy-gatekeepers

echo "== cargo build --examples"
cargo build --examples

echo "OK: docs are warning-free workspace-wide, the deny gate and doctests pass, all examples build"
