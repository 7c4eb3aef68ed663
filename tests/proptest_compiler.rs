//! Property tests for the policy compiler (ISSUE 7): on arbitrary
//! small populations full of shared includes, redirects, loops, macros
//! and void lookups, a [`CompiledPolicy`] must agree *exactly* with
//! bare `check_host` — the verdict, the DNS-lookup charge, the
//! void-lookup charge, the matched directive, the final domain and the
//! typed problem — for every address the tables answer, and fall back
//! (never guess) everywhere else.
//!
//! The generated worlds deliberately straddle the compilability line:
//! session macros and `exists` terms force residues, `%{d}` macros stay
//! compile-constant, missing A records charge the void budget, and
//! include/redirect targets point back into the population so loops
//! and deep shared subtrees occur. Two deterministic adversarial
//! shapes — a session macro in the *last* term, and an `exists` buried
//! behind nine includes (the lookup budget's edge) — pin the
//! almost-compilable corner explicitly.
//!
//! The same worlds pin the shared compile (ISSUE 23): through one
//! [`SubtreeMemo`] per world, `compile_policy_shared` must be the same
//! verdict *function* as `compile_policy` — probed at both ends of
//! every row of both tables — whatever order the population
//! arrives in and however many threads share the memo.

use std::collections::HashSet;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use proptest::prelude::*;
use spf_core::{
    check_host, compile_policy, compile_policy_shared, Compilability, CompileConfig,
    CompiledPolicy, EvalContext, EvalPolicy, Residue, ResidueKind, SpfResult, SubtreeMemo,
};
use spf_dns::{ZoneResolver, ZoneStore};
use spf_types::DomainName;

const SENDER: &str = "alice";

fn arb_qualifier() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(""), Just("+"), Just("-"), Just("~"), Just("?")]
}

/// A term generator whose include/redirect/a/mx/exists targets point
/// back into the generated population (`d0.test` … `d{n-1}.test`), with
/// macro-bearing variants sprinkled in: `%{d}` (compile-constant),
/// `%{l}` (session residue) and `%{i}` (address residue).
fn arb_compile_term(n: usize) -> impl Strategy<Value = String> {
    let ip = any::<u32>().prop_map(|v| Ipv4Addr::from(v).to_string());
    prop_oneof![
        (arb_qualifier(), ip.clone(), 8u8..=32).prop_map(|(q, ip, p)| format!("{q}ip4:{ip}/{p}")),
        (arb_qualifier(), ip).prop_map(|(q, ip)| format!("{q}ip4:{ip}")),
        (arb_qualifier(), any::<u128>(), 16u8..=128)
            .prop_map(|(q, v, p)| format!("{q}ip6:{}/{p}", Ipv6Addr::from(v))),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}include:d{j}.test")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}a:d{j}.test")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}mx:d{j}.test")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}exists:d{j}.test")),
        (0..n).prop_map(|j| format!("redirect=d{j}.test")),
        // Macro corners: %{d} compiles away, %{l}/%{i} must park
        // residues (and therefore route those regions to the fallback).
        arb_qualifier().prop_map(|q| format!("{q}a:%{{d}}")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}exists:%{{l}}.d{j}.test")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}a:%{{i}}.d{j}.test")),
    ]
}

/// One random domain: an optional SPF record plus an optional A record
/// (absent A records make `a:`/`mx:` terms void, exercising the void
/// budget through the compiler's symbolic accounting).
fn arb_compile_domain(n: usize) -> impl Strategy<Value = (Option<String>, Option<u32>)> {
    (
        0u8..10,
        proptest::collection::vec(arb_compile_term(n), 0..5),
        prop_oneof![Just(""), Just(" -all"), Just(" ~all"), Just(" +all")],
        0u8..2,
        any::<u32>(),
    )
        .prop_map(|(has_spf, terms, all, has_a, addr)| {
            let record = (has_spf < 9).then(|| {
                let mut s = String::from("v=spf1");
                for t in &terms {
                    s.push(' ');
                    s.push_str(t);
                }
                s.push_str(all);
                s
            });
            (record, (has_a == 1).then_some(addr))
        })
}

/// Build the zone for one generated world; returns the population in
/// index order plus one address harvested from a published `ip4` term
/// (so pass verdicts and in-range table rows are exercised too).
fn build_world(
    world: &[(Option<String>, Option<u32>)],
) -> (Arc<ZoneStore>, Vec<DomainName>, Option<Ipv4Addr>) {
    let store = Arc::new(ZoneStore::new());
    let mut domains = Vec::new();
    let mut first_ip4 = None;
    for (i, (record, a_addr)) in world.iter().enumerate() {
        let d = DomainName::parse(&format!("d{i}.test")).unwrap();
        if let Some(text) = record {
            store.add_txt(&d, text);
            if first_ip4.is_none() {
                if let Some(pos) = text.find("ip4:") {
                    let rest = &text[pos + 4..];
                    let end = rest.find([' ', '/']).unwrap_or(rest.len());
                    first_ip4 = rest[..end].parse().ok();
                }
            }
        }
        if let Some(addr) = a_addr {
            store.add_a(&d, Ipv4Addr::from(*addr));
        }
        domains.push(d);
    }
    (store, domains, first_ip4)
}

/// The identity obligation for one `(domain, ip)` cell: a table answer
/// must equal bare `check_host` field for field; a `None` must be a
/// declared residual region, and the fallback (bare `check_host` by
/// construction) is then trivially identical.
fn assert_cell(
    resolver: &ZoneResolver,
    compiled: &CompiledPolicy,
    domain: &DomainName,
    ip: IpAddr,
) -> Result<(), String> {
    let ctx = EvalContext::mail_from(ip, SENDER, domain.clone());
    let bare = check_host(resolver, &ctx, domain, &EvalPolicy::default());
    match compiled.verdict(ip) {
        Some(eval) => {
            prop_assert_eq!(
                &eval,
                &bare,
                "compiled verdict diverged for {} from {}",
                domain,
                ip
            );
        }
        None => {
            prop_assert!(
                !compiled.covers(ip),
                "verdict None but {} claims coverage of {}",
                domain,
                ip
            );
            prop_assert!(
                !compiled.residues().is_empty(),
                "uncovered {} with no declared residue",
                ip
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Verdicts and charges are exact on random macro/void/loop-heavy
    /// worlds, for random v4 and v6 probes plus an in-range address.
    #[test]
    fn compiled_policies_match_check_host_on_random_worlds(
        world in proptest::collection::vec(arb_compile_domain(6), 6),
        probe_v4 in proptest::collection::vec(any::<u32>(), 2),
        probe_v6 in any::<u128>(),
    ) {
        let (store, domains, first_ip4) = build_world(&world);
        let resolver = ZoneResolver::new(store);
        let config = CompileConfig::default();
        for domain in &domains {
            let compiled = compile_policy(&resolver, domain, &config);
            compiled.assert_invariants();
            // Residue bookkeeping is sound: a fully compiled policy
            // answers everything, a residual one answers nothing.
            match compiled.compilability() {
                Compilability::Full => prop_assert!(compiled.residues().is_empty()),
                Compilability::Partial | Compilability::Residual => {
                    prop_assert!(!compiled.residues().is_empty());
                }
            }
            for bits in &probe_v4 {
                assert_cell(&resolver, &compiled, domain, IpAddr::V4(Ipv4Addr::from(*bits)))?;
            }
            if let Some(ip) = first_ip4 {
                assert_cell(&resolver, &compiled, domain, IpAddr::V4(ip))?;
            }
            assert_cell(&resolver, &compiled, domain, IpAddr::V6(Ipv6Addr::from(probe_v6)))?;
        }
    }

    /// Compilation is deterministic: two compiles of the same domain
    /// against the same zone agree on shape and on every probed verdict.
    #[test]
    fn compilation_is_deterministic(
        world in proptest::collection::vec(arb_compile_domain(4), 4),
        probe in any::<u32>(),
    ) {
        let (store, domains, _) = build_world(&world);
        let resolver = ZoneResolver::new(store);
        let config = CompileConfig::default();
        for domain in &domains {
            let a = compile_policy(&resolver, domain, &config);
            let b = compile_policy(&resolver, domain, &config);
            prop_assert_eq!(a.compilability(), b.compilability());
            prop_assert_eq!(a.range_count(), b.range_count());
            prop_assert_eq!(a.outcome_count(), b.outcome_count());
            let ip = IpAddr::V4(Ipv4Addr::from(probe));
            prop_assert_eq!(a.verdict(ip), b.verdict(ip));
        }
    }
}

// ---------------------------------------------------------------------
// Shared subtrees: `compile_policy_shared` ≡ `compile_policy` ≡ `check_host`.
// ---------------------------------------------------------------------

/// The first and last address of every row of both policies' tables.
/// Rows tile the space, so these are both sides of every boundary of
/// either table.
fn boundary_probes(policies: [&CompiledPolicy; 2]) -> Vec<IpAddr> {
    policies
        .into_iter()
        .flat_map(CompiledPolicy::row_bounds)
        .flat_map(|(lo, hi)| [lo, hi])
        .collect()
}

fn residue_set(policy: &CompiledPolicy) -> HashSet<&Residue> {
    policy.residues().iter().collect()
}

/// `shared` and `direct` are the same function of the address (outcome
/// order and row splits may differ, so `==` on the policies is not the
/// test), with the same residue set and compilability.
fn assert_same_function(
    shared: &CompiledPolicy,
    direct: &CompiledPolicy,
    vantages: &[IpAddr],
) -> Result<(), String> {
    shared.assert_invariants();
    prop_assert_eq!(shared.compilability(), direct.compilability());
    prop_assert_eq!(residue_set(shared), residue_set(direct));
    for ip in boundary_probes([shared, direct])
        .into_iter()
        .chain(vantages.iter().copied())
    {
        prop_assert_eq!(
            shared.verdict(ip),
            direct.verdict(ip),
            "shared and direct compiles of {} differ from {}",
            direct.domain(),
            ip
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One memo per world: every domain's shared compile is the direct
    /// compile's verdict function, and every table answer is bare
    /// `check_host`'s.
    #[test]
    fn shared_compiles_match_direct_compiles_and_check_host(
        world in proptest::collection::vec(arb_compile_domain(6), 6),
        probe_v4 in proptest::collection::vec(any::<u32>(), 2),
        probe_v6 in any::<u128>(),
    ) {
        let (store, domains, first_ip4) = build_world(&world);
        let resolver = ZoneResolver::new(store);
        let config = CompileConfig::default();
        let mut vantages: Vec<IpAddr> = probe_v4
            .iter()
            .map(|bits| IpAddr::V4(Ipv4Addr::from(*bits)))
            .collect();
        vantages.extend(first_ip4.map(IpAddr::V4));
        vantages.push(IpAddr::V6(Ipv6Addr::from(probe_v6)));
        let memo = SubtreeMemo::new();
        for domain in &domains {
            let shared = compile_policy_shared(&resolver, domain, &config, &memo);
            let direct = compile_policy(&resolver, domain, &config);
            assert_same_function(&shared, &direct, &vantages)?;
            for ip in boundary_probes([&shared, &direct]).into_iter().chain(vantages.iter().copied()) {
                assert_cell(&resolver, &shared, domain, ip)?;
            }
        }
        let stats = memo.stats();
        prop_assert_eq!(stats.composed + stats.fallbacks, stats.lookups);
        prop_assert!(stats.compiles <= stats.lookups);
    }

    /// Which domain meets a subtree first decides who compiles it and
    /// what is in the memo when the others arrive — never a verdict:
    /// two population orders over fresh memos, and eight threads over
    /// one, all give the direct compile's functions.
    #[test]
    fn population_order_and_sharing_threads_cannot_matter(
        world in proptest::collection::vec(arb_compile_domain(6), 6),
        probe in any::<u32>(),
    ) {
        let (store, domains, first_ip4) = build_world(&world);
        let resolver = ZoneResolver::new(store);
        let config = CompileConfig::default();
        let mut vantages = vec![IpAddr::V4(Ipv4Addr::from(probe))];
        vantages.extend(first_ip4.map(IpAddr::V4));
        let direct: Vec<CompiledPolicy> = domains
            .iter()
            .map(|d| compile_policy(&resolver, d, &config))
            .collect();

        let forward: Vec<usize> = (0..domains.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        for order in [&forward, &backward] {
            let memo = SubtreeMemo::new();
            for &i in order {
                let shared = compile_policy_shared(&resolver, &domains[i], &config, &memo);
                assert_same_function(&shared, &direct[i], &vantages)?;
            }
        }

        let memo = SubtreeMemo::new();
        let start = std::sync::Barrier::new(8);
        let compiled: Vec<Vec<(usize, CompiledPolicy)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let (resolver, domains, memo, start) = (&resolver, &domains, &memo, &start);
                    scope.spawn(move || {
                        // Every thread compiles the whole population,
                        // each starting somewhere else, all at once.
                        start.wait();
                        (0..domains.len())
                            .map(|k| (k + t) % domains.len())
                            .map(|i| (i, compile_policy_shared(resolver, &domains[i], &config, memo)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("compile thread panicked"))
                .collect()
        });
        for (i, shared) in compiled.iter().flatten() {
            assert_same_function(shared, &direct[*i], &vantages)?;
        }
        let stats = memo.stats();
        prop_assert_eq!(stats.composed + stats.fallbacks, stats.lookups);
        prop_assert!(stats.compiles <= stats.lookups);
    }
}

// ---------------------------------------------------------------------
// Adversarial almost-compilable shapes, pinned deterministically.
// ---------------------------------------------------------------------

fn probe_grid() -> Vec<IpAddr> {
    let mut ips: Vec<IpAddr> = [
        "0.0.0.0",
        "1.2.3.4",
        "192.0.2.1",
        "192.0.2.255",
        "192.0.3.0",
        "203.0.113.7",
        "255.255.255.255",
    ]
    .iter()
    .map(|s| IpAddr::V4(s.parse().unwrap()))
    .collect();
    ips.push(IpAddr::V6("2001:db8::1".parse().unwrap()));
    ips
}

fn assert_identical_everywhere(resolver: &ZoneResolver, domain: &DomainName) -> CompiledPolicy {
    let compiled = compile_policy(resolver, domain, &CompileConfig::default());
    compiled.assert_invariants();
    for ip in probe_grid() {
        let ctx = EvalContext::mail_from(ip, SENDER, domain.clone());
        let bare = check_host(resolver, &ctx, domain, &EvalPolicy::default());
        match compiled.verdict(ip) {
            Some(eval) => assert_eq!(eval, bare, "diverged for {domain} from {ip}"),
            None => assert!(!compiled.covers(ip)),
        }
    }
    compiled
}

/// A session macro in the *last* mechanism: everything the static
/// prefix decides must compile (first-match-wins), and only the
/// leftover region may fall back.
#[test]
fn session_macro_in_last_term_compiles_the_static_prefix() {
    let store = Arc::new(ZoneStore::new());
    let domain = DomainName::parse("tail.test").unwrap();
    store.add_txt(
        &domain,
        "v=spf1 ip4:192.0.2.0/24 -ip4:203.0.113.0/24 a:%{l}.gate.test -all",
    );
    let resolver = ZoneResolver::new(store);
    let compiled = assert_identical_everywhere(&resolver, &domain);
    assert_eq!(compiled.compilability(), Compilability::Partial);
    assert!(compiled
        .residues()
        .iter()
        .any(|r| r.kind == ResidueKind::SessionMacro));
    // The static prefix stays decided from the tables: an address the
    // first term matches never consults the fallback.
    let inside = IpAddr::V4("192.0.2.9".parse().unwrap());
    let eval = compiled.verdict(inside).expect("prefix region compiled");
    assert_eq!(eval.result, SpfResult::Pass);
    assert_eq!(eval.matched_directive.as_deref(), Some("ip4:192.0.2.0/24"));
    let excluded = IpAddr::V4("203.0.113.9".parse().unwrap());
    assert_eq!(
        compiled
            .verdict(excluded)
            .expect("fail region compiled")
            .result,
        SpfResult::Fail
    );
    // Past the static prefix the session macro owns the region.
    assert!(compiled
        .verdict(IpAddr::V4("198.51.100.1".parse().unwrap()))
        .is_none());
}

/// An `exists` buried behind nine includes: the compiler must walk the
/// whole chain (charging one lookup per include, exactly like the
/// evaluator), then park the residue at the very bottom — with the
/// tenth-lookup budget edge intact on both paths.
#[test]
fn exists_behind_nine_includes_parks_the_residue_at_the_bottom() {
    let store = Arc::new(ZoneStore::new());
    for i in 0..10 {
        let d = DomainName::parse(&format!("i{i}.test")).unwrap();
        let next = if i < 9 {
            format!("v=spf1 include:i{}.test -all", i + 1)
        } else {
            "v=spf1 exists:gate.test -all".to_string()
        };
        store.add_txt(&d, &next);
    }
    let top = DomainName::parse("i0.test").unwrap();
    let resolver = ZoneResolver::new(store);
    let compiled = assert_identical_everywhere(&resolver, &top);
    // 9 includes + 1 exists = exactly the 10-lookup budget: the chain
    // is legal on both paths, and the only residue is the exists
    // itself at the bottom — nothing compiled, nothing over budget.
    assert_eq!(compiled.compilability(), Compilability::Residual);
    assert!(compiled
        .residues()
        .iter()
        .any(|r| r.kind == ResidueKind::Exists));
    assert!(!compiled
        .residues()
        .iter()
        .any(|r| r.kind == ResidueKind::OverBudget));

    // One include deeper the 11th charge trips the budget before the
    // exists is reached — and the compiled tables must reproduce the
    // permerror, not a residue (the budget verdict is static).
    let store = Arc::new(ZoneStore::new());
    for i in 0..11 {
        let d = DomainName::parse(&format!("j{i}.test")).unwrap();
        let next = if i < 10 {
            format!("v=spf1 include:j{}.test -all", i + 1)
        } else {
            "v=spf1 exists:gate.test -all".to_string()
        };
        store.add_txt(&d, &next);
    }
    let top = DomainName::parse("j0.test").unwrap();
    let resolver = ZoneResolver::new(store);
    let compiled = assert_identical_everywhere(&resolver, &top);
    assert_eq!(compiled.compilability(), Compilability::Full);
    let verdict = compiled
        .verdict(IpAddr::V4("192.0.2.1".parse().unwrap()))
        .expect("budget trip is static");
    assert_eq!(verdict.result, SpfResult::PermError);
}
