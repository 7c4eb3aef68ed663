#!/usr/bin/env bash
# spf-testkit is a `[dev-dependencies]` entry only: production crates
# export only what production calls. Fails if `cargo tree -e normal` of
# any production crate (every crates/* package but the testkit) or of
# the `lazy-gatekeepers` façade reaches spf-testkit.
#
#   scripts/testkit_dev_only.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for pkg in lazy-gatekeepers $(sed -n 's/^name = "\(.*\)"$/\1/p' crates/*/Cargo.toml | grep -vx spf-testkit); do
    if cargo tree --offline -e normal -p "$pkg" | grep -q 'spf-testkit'; then
        echo "FAIL $pkg depends on spf-testkit outside [dev-dependencies]" >&2
        status=1
    else
        echo "ok   $pkg"
    fi
done
exit $status
