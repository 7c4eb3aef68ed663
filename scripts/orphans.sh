#!/usr/bin/env bash
# List public items nothing else names: every `pub` fn, struct, enum,
# const, type, trait or static under crates/*/src whose name appears in
# no other first-party Rust file (crates, src, tests, examples,
# benchmark/src). Such an item is called, if at all, only by its own
# file and that file's unit tests — a candidate for deletion, or for a
# one-line reason to keep it (ROADMAP item 12).
#
# The scan is by word, not by path: a name another file happens to use
# for something else hides an orphan, and a re-export in a `lib.rs`
# counts as a use. It is advisory and always exits 0.
#
#   scripts/orphans.sh        # one `file:line name` per orphan, then a count
set -uo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find crates src tests examples benchmark/src -name '*.rs' 2>/dev/null | sort >"$tmp/files"

# "<word> <file>" for every distinct identifier of every file.
while read -r f; do
    grep -ow '[A-Za-z_][A-Za-z0-9_]*' "$f" | sort -u | sed "s|\$| $f|"
done <"$tmp/files" >"$tmp/words"

# "<file>:<line> <name>" for every public item definition.
grep -rnE --include='*.rs' \
    '^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|const|type|trait|static)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*' \
    crates/*/src |
    sed -E 's/^([^:]+:[0-9]+):[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|const|type|trait|static)[[:space:]]+(mut[[:space:]]+)?([A-Za-z_][A-Za-z0-9_]*).*/\1 \6/' \
    >"$tmp/defs"

awk '
    NR == FNR { files[$1] = files[$1] " " $2 " "; next }
    {
        split($1, at, ":")
        others = files[$2]
        gsub(" " at[1] " ", " ", others)
        if (others !~ /[^ ]/) { print; n++ }
    }
    END { printf "%d public items named in no other file\n", n }
' "$tmp/words" "$tmp/defs"
exit 0
