#!/usr/bin/env bash
# First-party Rust lines in three counts (ROADMAP items 4 and 16):
#
#   production  crates/*/src and src/, up to each file's first
#               `#[cfg(test)]` (every test module is its file's tail),
#               spf-testkit excluded
#   test        those test tails, plus tests/, crates/*/tests and
#               crates/testkit
#   examples    examples/
#
# vendor/ and benchmark/ are not counted.
#
#   scripts/loc.sh [root]     # root defaults to this checkout
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find crates src tests examples -name '*.rs' 2>/dev/null | sort | xargs awk '
    FNR == 1 {
        kind = "production"
        if (FILENAME ~ /^(tests|crates\/[^\/]+\/tests|crates\/testkit)\//) kind = "test"
        else if (FILENAME ~ /^examples\//) kind = "examples"
    }
    kind == "production" && /#\[cfg\(test\)\]/ { kind = "test" }
    { lines[kind]++ }
    END {
        printf "production %6d\n", lines["production"]
        printf "test       %6d\n", lines["test"]
        printf "examples   %6d\n", lines["examples"]
    }
'
