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
#  5. Every `scripts/*.sh` that README.md, DESIGN.md or the verify notes
#     name must exist, so a deleted script leaves no dangling command.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== scripts named in the docs exist"
missing=0
for script in $(grep -oh 'scripts/[A-Za-z0-9_.-]*\.sh' README.md DESIGN.md \
    .claude/skills/verify/SKILL.md | sort -u); do
    [[ -f $script ]] || { echo "FAIL: the docs name $script, which does not exist"; missing=1; }
done
[[ $missing == 0 ]] || exit 1

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

echo "OK: docs are warning-free workspace-wide, the deny gate and doctests pass, all examples build, every script the docs name exists"
