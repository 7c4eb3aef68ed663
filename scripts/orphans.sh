#!/usr/bin/env bash
# The reachability gate (ROADMAP item 12): every `pub` fn, struct, enum,
# const, type, trait or static under crates/*/src (outside the
# `#[cfg(test)]` tail) must be named by another first-party Rust file's
# production code — crates/*/src and src/ outside their test tails,
# examples/ and benchmark/src. An item that fails is listed as
#
#   orphan      no other file names it: delete it, or drop its `pub`
#               if its own file uses it;
#   test-only   only other files' tests name it (a `#[cfg(test)]` tail,
#               tests/, crates/*/tests or crates/testkit): move it to
#               spf-testkit if it needs no private access.
#
# An item that must stay anyway goes in the allow-list below with a
# one-line reason. Items of crates/testkit itself need a test caller.
#
# The scan is by word, not by path: a name another file happens to use
# for something else hides an orphan. Lines inside a `pub use …;`
# re-export (one line or many) are not references, and neither are
# lines of a `#[cfg(test)]` tail for the production count. Every test
# module in crates/*/src and src/ is its file's tail, so "from the first
# `#[cfg(test)]` to the end" is exact.
#
#   scripts/orphans.sh        # one `file:line name kind` per entry not
#                             # allowed, then the counts; exit 1 if any
#                             # entry is not allowed or an allowed entry
#                             # is no longer listed
set -uo pipefail
cd "$(dirname "$0")/.."

# `file name reason`: kept on purpose, one line each.
allowed() {
    cat <<'EOF'
# Types other crates reach only through a public signature of their own
# file (a return, field or argument type): callers use them without
# writing the name.
crates/analyzer/src/flatten.rs FlattenProblem error type of `flatten`, element of `Flattened::problems`
crates/analyzer/src/flatten.rs Flattened return type of `flatten`
crates/analyzer/src/recommend.rs Recommendation element type of `recommend`'s result
crates/analyzer/src/walker.rs WalkPolicy argument of `Walker::with_policy`
crates/bench/src/experiments.rs WireRunStats return type of `WireRun::stats`
crates/core/src/compile.rs ResidueKind field type of `Residue::kind`
crates/core/src/compile.rs Residue element type of `CompiledPolicy::residues`
crates/core/src/compile.rs Compilability return type of `CompiledPolicy::compilability`
crates/core/src/dmarc.rs Alignment field type of `DmarcRecord::adkim` / `aspf`
crates/core/src/dmarc.rs DmarcRecord success type of `parse_dmarc`
crates/core/src/dmarc.rs DmarcError error type of `parse_dmarc`
crates/core/src/macroexpand.rs ExpandError error type of `expand_domain`
crates/core/src/parse.rs ParseWarning element type of `ParsedRecord::warnings`
crates/crawler/src/longitudinal.rs EpochReport return type of `ChurnEngine::step`
crates/crawler/src/overlap.rs ProviderConcentration element type of `OverlapReport::providers`
crates/crawler/src/spoof.rs VantageReport element type of `SpoofMatrix::vantages`
crates/crawler/src/spoof.rs RowCell element type of `DomainMatrixRow::cells`
crates/crawler/src/spoof.rs AuthMatrixRow argument of `AuthMatrix::fold_in`, result of `evaluate_auth_row`
crates/crawler/src/spoof.rs TierReport element type of `AuthMatrix::tiers`
crates/crawler/src/spoof.rs AuthMatrixStats second half of `auth_matrix`'s result
crates/dns/src/wire.rs WireError error type of `encode` / `decode`
crates/netsim/src/churn.rs ChurnKind field type of `ChurnEvent::kind`
crates/netsim/src/churn.rs ChurnEvent element type of `ChurnBatch::events`
crates/netsim/src/churn.rs ChurnBatch return type of `ChurnSimulator::next_epoch` (benchmark surface)
crates/netsim/src/churn.rs ChurnPreset field type of `ChurnConfig::preset`
crates/netsim/src/providers.rs ProviderEntry element type of `ProviderWorld::catalog`
crates/notify/src/remediate.rs RemediationOutcome return type of `apply_remediation`
crates/report/src/compare.rs Unit field type of `Comparison::unit`
crates/report/src/compare.rs Comparison element type of `Experiment::rows`
crates/service/src/service.rs ServiceTelemetry return type of `VerdictService::telemetry` (benchmark surface)
crates/service/src/traffic.rs TrafficReport return type of `drive`
crates/smtp/src/server.rs DmarcResult field type of `ReceivedMessage::dmarc_result`
crates/smtp/src/server.rs ReceivedMessage element type of `SmtpServer::received`
crates/smtp/src/spoof.rs CaseStudyRow element type of `run_case_study`'s result
crates/testkit/src/resolver.rs QueryStats return type of `CountingResolver::stats`
crates/types/src/backend.rs BackendParseError error type of `Backend::parse`
crates/types/src/domain.rs DomainError error type of `DomainName::parse`
crates/types/src/overlap.rs WeightedRange item type of `WeightedRanges::iter`
crates/types/src/stats.rs StatValue field type of `StatItem::value`
# Test oracles and hooks that read private state or construct with an
# injected clock, so they cannot live in spf-testkit.
crates/core/src/compile.rs residues also folded into `CompilerStats`; the compiler suites check residue routing with it
crates/core/src/compile.rs outcome_count reads the private verdict templates (proptest_compiler)
crates/core/src/compile.rs row_bounds reads the private range tables: where differential tests probe
crates/core/src/compile.rs assert_invariants oracle over the private range tables
crates/crawler/src/longitudinal.rs pending_deltas reads the private delta queue (churn_stress)
crates/dns/src/fleet.rs with_clock constructor with an injected clock; the TTL tests drive a VirtualClock
crates/dns/src/wire.rs encode_uncompressed the private writer without compression: wire_fuzz's size and round-trip baseline
crates/dns/src/wire.rs MAX_UDP_PAYLOAD RFC 1035's UDP limit, which wire_fuzz holds the truncation path to
crates/dns/src/zone.rs add_record the insert every typed `add_*` wraps; tests and spf-testkit add AAAA and PTR records through it
crates/report/src/compare.rs worst_relative_error bench's tests assert every cross-check row of a log reads 0 with it
crates/service/src/cache.rs invalidate_domain churn invalidation of the memo; no service takes zone deltas yet (ROADMAP item 2)
crates/service/src/client.rs query_stacked one stacked query over the client's private socket; the service suites drive the auth stack with it
crates/service/src/service.rs spawn_at `VerdictService::spawn` with an injected clock; the TTL tests drive expiry with it
crates/service/src/service.rs cache_stripe_stats reads the private memo stripes (service_stress)
crates/types/src/overlap.rs set_count reads the private set counter (the coverage proptests)
crates/types/src/overlap.rs max_weight also used by `top_coverage`; the proptests check it against a naive count
# Language plumbing no caller writes.
crates/types/src/ipset.rs Sealed supertrait that seals `IpFamily`; public so it may bound a public trait, unnameable outside the crate
EOF
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find crates src tests examples benchmark/src -name '*.rs' 2>/dev/null | sort >"$tmp/files"
: >"$tmp/defs"

# "<word> <file> <prod|test>" for every distinct identifier of every
# file, and "<file>:<line> <name>" for every public item definition
# outside a test tail.
xargs awk -v defs="$tmp/defs" '
    FNR == 1 {
        test = FILENAME ~ /^(tests|crates\/[^\/]+\/tests|crates\/testkit)\//
        reexport = 0
        scan_defs = FILENAME ~ /^crates\/[^\/]+\/src\//
    }
    /#\[cfg\(test\)\]/ { test = 1 }
    {
        line = $0
        if (!reexport && line ~ /^[[:space:]]*pub(\([^)]*\))?[[:space:]]+use[[:space:]]/) reexport = 1
        if (reexport) {
            if (line ~ /;/) reexport = 0
            next
        }
        if (scan_defs && (!test || FILENAME ~ /^crates\/testkit\//) &&
            match(line, /^[[:space:]]*pub[[:space:]]+((const|async|unsafe)[[:space:]]+)*(fn|struct|enum|const|type|trait|static)[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*/)) {
            head = substr(line, 1, RLENGTH)
            match(head, /[A-Za-z_][A-Za-z0-9_]*$/)
            print FILENAME ":" FNR " " substr(head, RSTART) >>defs
        }
        while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
            print substr(line, RSTART, RLENGTH), FILENAME, (test ? "test" : "prod")
            line = substr(line, RSTART + RLENGTH)
        }
    }
' <"$tmp/files" | sort -u >"$tmp/words"

allowed | awk 'NF && !/^#/ { print $1, $2 }' >"$tmp/allowed"

awk -v allowfile="$tmp/allowed" '
    BEGIN { while ((getline l < allowfile) > 0) allow[l] = 1 }
    NR == FNR { refs[$1] = refs[$1] " " $2 ":" $3; next }
    {
        split($1, at, ":")
        file = at[1]; name = $2
        n = split(refs[name], r, " ")
        prod = 0; tst = 0
        for (i = 1; i <= n; i++) {
            split(r[i], fk, ":")
            if (fk[1] == file) continue
            if (fk[2] == "prod") prod = 1; else tst = 1
        }
        testkit = file ~ /^crates\/testkit\//
        if (prod || (testkit && tst)) next
        kind = tst ? "test-only" : "orphan"
        listed[file " " name] = 1
        if ((file " " name) in allow) { kept++; next }
        print $1, name, kind
        bad++
        if (kind == "test-only") testonly++
    }
    END {
        for (a in allow) if (!(a in listed)) { print "stale allow-list entry: " a; bad++; stale++ }
        printf "%d entries not allowed (%d test-only, %d stale), %d allowed\n", bad, testonly, stale, kept
        exit bad > 0
    }
' "$tmp/words" "$tmp/defs"
