//! Evaluator edge cases beyond the RFC vectors: recursion guards,
//! macro-targeted includes, degenerate zones and policy knobs.

use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spf_core::{
    check_host, check_host_cached, compile_policy, BudgetKey, CompileConfig, EvalContext,
    EvalPolicy, EvalProblem, FetchedRecord, SpfResult, SubtreeVerdict, VerdictCache,
};
use spf_dns::{ZoneResolver, ZoneStore};
use spf_testkit::dom;
use spf_types::DomainName;

fn eval_with(
    store: &Arc<ZoneStore>,
    ip: &str,
    domain: &str,
    policy: &EvalPolicy,
) -> spf_core::Evaluation {
    let resolver = ZoneResolver::new(Arc::clone(store));
    let d = dom(domain);
    let ctx = EvalContext::mail_from(ip.parse().unwrap(), "alice", d.clone());
    check_host(&resolver, &ctx, &d, policy)
}

#[test]
fn recursion_depth_guard_fires_before_stack_overflow() {
    let store = Arc::new(ZoneStore::new());
    // A redirect chain longer than the depth guard but shorter than the
    // lookup budget would allow if the limit were raised.
    for i in 0..30 {
        store.add_txt(
            &dom(&format!("r{i}.example")),
            &format!("v=spf1 redirect=r{}.example", i + 1),
        );
    }
    store.add_txt(&dom("r30.example"), "v=spf1 -all");
    let policy = EvalPolicy {
        max_dns_lookups: 100,
        max_recursion_depth: 8,
        ..Default::default()
    };
    let e = eval_with(&store, "192.0.2.1", "r0.example", &policy);
    assert_eq!(e.result, SpfResult::PermError);
    assert_eq!(e.problem, Some(EvalProblem::TooDeep));
}

#[test]
fn include_with_macro_target_resolves_per_sender() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(
        &dom("macro.example"),
        "v=spf1 include:%{d1}.zones.example -all",
    );
    // %{d1} of macro.example is "example".
    store.add_txt(&dom("example.zones.example"), "v=spf1 ip4:192.0.2.55 -all");
    let e = eval_with(
        &store,
        "192.0.2.55",
        "macro.example",
        &EvalPolicy::default(),
    );
    assert_eq!(e.result, SpfResult::Pass);
}

#[test]
fn mx_with_duplicate_exchanges_counts_once() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("dup.example"), "v=spf1 mx -all");
    // Same exchange at several preferences: still one address lookup set,
    // and well under the 10-exchange limit.
    for pref in [10, 20, 30] {
        store.add_mx(&dom("dup.example"), pref, &dom("mx.dup.example"));
    }
    store.add_a(&dom("mx.dup.example"), "198.51.100.4".parse().unwrap());
    let e = eval_with(
        &store,
        "198.51.100.4",
        "dup.example",
        &EvalPolicy::default(),
    );
    assert_eq!(e.result, SpfResult::Pass);
}

#[test]
fn empty_record_body_is_neutral() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("bare.example"), "v=spf1");
    let e = eval_with(&store, "192.0.2.1", "bare.example", &EvalPolicy::default());
    assert_eq!(e.result, SpfResult::Neutral);
    assert_eq!(e.dns_lookups, 0);
}

#[test]
fn lookup_budget_zero_rejects_any_lookup_term() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("one.example"), "v=spf1 mx -all");
    store.add_mx(&dom("one.example"), 10, &dom("mx.one.example"));
    store.add_a(&dom("mx.one.example"), "192.0.2.9".parse().unwrap());
    let policy = EvalPolicy {
        max_dns_lookups: 0,
        ..Default::default()
    };
    let e = eval_with(&store, "192.0.2.9", "one.example", &policy);
    assert_eq!(e.result, SpfResult::PermError);
    assert!(matches!(
        e.problem,
        Some(EvalProblem::TooManyLookups { .. })
    ));
}

#[test]
fn include_of_record_with_only_modifiers() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(
        &dom("outer.example"),
        "v=spf1 include:mods.example ip4:10.0.0.1 -all",
    );
    // The included record has no mechanisms at all → evaluates neutral →
    // include does not match → continue.
    store.add_txt(&dom("mods.example"), "v=spf1 unknown=modifier");
    let e = eval_with(&store, "10.0.0.1", "outer.example", &EvalPolicy::default());
    assert_eq!(e.result, SpfResult::Pass);
}

#[test]
fn ip4_mechanism_boundary_addresses() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(
        &dom("edge.example"),
        "v=spf1 ip4:192.0.2.0/31 ip4:255.255.255.255 -all",
    );
    for (ip, expected) in [
        ("192.0.2.0", SpfResult::Pass),
        ("192.0.2.1", SpfResult::Pass),
        ("192.0.2.2", SpfResult::Fail),
        ("255.255.255.255", SpfResult::Pass),
        ("0.0.0.0", SpfResult::Fail),
    ] {
        assert_eq!(
            eval_with(&store, ip, "edge.example", &EvalPolicy::default()).result,
            expected,
            "{ip}"
        );
    }
}

#[test]
fn evaluation_counts_are_reported_faithfully() {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(
        &dom("counting.example"),
        "v=spf1 a:gone1.example a:gone2.example include:sub.example -all",
    );
    store.add_txt(&dom("sub.example"), "v=spf1 ip4:203.0.113.5 -all");
    let e = eval_with(
        &store,
        "203.0.113.5",
        "counting.example",
        &EvalPolicy::default(),
    );
    assert_eq!(e.result, SpfResult::Pass);
    // a + a + include = 3 lookup terms; two NXDOMAIN voids.
    assert_eq!(e.dns_lookups, 3);
    assert_eq!(e.void_lookups, 2);
    assert_eq!(e.matched_directive.as_deref(), Some("include:sub.example"));
}

#[test]
fn helo_context_constructor_defaults() {
    let d = dom("mail.example.org");
    let ctx = EvalContext::mail_from("192.0.2.1".parse().unwrap(), "", d.clone());
    // Empty local part is preserved (callers normalize to postmaster per
    // RFC 7208 §2.4 before constructing if desired).
    assert_eq!(ctx.sender(), "@mail.example.org");
    assert_eq!(ctx.helo, d);
}

/// A plain map memo, enough to drive `check_host_cached`.
#[derive(Default)]
struct MapCache {
    verdicts: Mutex<HashMap<(DomainName, IpAddr, BudgetKey), Arc<SubtreeVerdict>>>,
    records: Mutex<HashMap<DomainName, Arc<FetchedRecord>>>,
}

impl VerdictCache for MapCache {
    fn get(
        &self,
        domain: &DomainName,
        ip: IpAddr,
        budget: BudgetKey,
    ) -> Option<(Arc<SubtreeVerdict>, Duration)> {
        let verdicts = self.verdicts.lock().unwrap();
        let verdict = verdicts.get(&(domain.clone(), ip, budget))?;
        Some((Arc::clone(verdict), Duration::ZERO))
    }

    fn put(
        &self,
        domain: &DomainName,
        ip: IpAddr,
        budget: BudgetKey,
        verdict: Arc<SubtreeVerdict>,
        _as_of: Option<Duration>,
    ) {
        let mut verdicts = self.verdicts.lock().unwrap();
        verdicts.insert((domain.clone(), ip, budget), verdict);
    }

    fn record(&self, domain: &DomainName) -> Option<(Arc<FetchedRecord>, Duration)> {
        let records = self.records.lock().unwrap();
        Some((Arc::clone(records.get(domain)?), Duration::ZERO))
    }

    fn put_record(&self, domain: &DomainName, record: Arc<FetchedRecord>) {
        self.records.lock().unwrap().insert(domain.clone(), record);
    }
}

/// `domain` evaluated for `ip` through bare `check_host`, through
/// `check_host_cached` on a cold and then a warm memo, and through the
/// compiled tables — asserted identical, and returned.
fn every_path(store: &Arc<ZoneStore>, domain: &str, ip: &str) -> spf_core::Evaluation {
    let resolver = ZoneResolver::new(Arc::clone(store));
    let d = dom(domain);
    let ip: IpAddr = ip.parse().unwrap();
    let ctx = EvalContext::mail_from(ip, "alice", d.clone());
    let policy = EvalPolicy::default();
    let bare = check_host(&resolver, &ctx, &d, &policy);
    let cache = MapCache::default();
    for pass in ["cold", "warm"] {
        let cached = check_host_cached(&resolver, &ctx, &d, &policy, &cache);
        assert_eq!(cached, bare, "{pass} memo diverged for {domain} from {ip}");
    }
    let compiled = compile_policy(&resolver, &d, &CompileConfig::default());
    let table = compiled
        .verdict(ip)
        .expect("the record compiles to a table");
    assert_eq!(
        table, bare,
        "compiled verdict diverged for {domain} from {ip}"
    );
    bare
}

#[test]
fn overlong_literal_include_drops_its_leftmost_label_on_every_path() {
    // 253 bytes, then a root dot: `DomainName::parse` accepts the
    // 254-byte text as the 253-byte name, but RFC 7208 §7.3 fitting
    // drops the leftmost label first, so the include reads `fitted`.
    let full = format!("{}.a", vec!["b".repeat(62); 4].join("."));
    assert_eq!(full.len(), 253);
    let spec = format!("{full}.");
    let fitted = full.split_once('.').unwrap().1.to_string();
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("long.example"), &format!("v=spf1 include:{spec} -all"));
    store.add_txt(&dom(&fitted), "v=spf1 ip4:192.0.2.10 -all");
    store.add_txt(&dom(&full), "v=spf1 ip4:192.0.2.20 -all");

    let via_fitted = every_path(&store, "long.example", "192.0.2.10");
    assert_eq!(via_fitted.result, SpfResult::Pass);
    assert_eq!(via_fitted.dns_lookups, 1);
    let include_text = format!("include:{spec}");
    assert_eq!(
        via_fitted.matched_directive.as_deref(),
        Some(&*include_text)
    );
    assert_eq!(via_fitted.final_domain, dom("long.example"));

    let via_full = every_path(&store, "long.example", "192.0.2.20");
    assert_eq!(via_full.result, SpfResult::Fail);
    assert_eq!(via_full.matched_directive.as_deref(), Some("-all"));
    assert_eq!(via_full.problem, None);
}

#[test]
fn include_with_a_64_byte_label_is_a_bad_expansion_on_every_path() {
    let wide = format!("{}.example", "c".repeat(64));
    let store = Arc::new(ZoneStore::new());
    store.add_txt(
        &dom("wide.example"),
        &format!("v=spf1 ip4:192.0.2.10 include:{wide} -all"),
    );
    let early = every_path(&store, "wide.example", "192.0.2.10");
    assert_eq!(early.result, SpfResult::Pass);
    assert_eq!(early.matched_directive.as_deref(), Some("ip4:192.0.2.10"));

    let bad = every_path(&store, "wide.example", "192.0.2.11");
    assert_eq!(bad.result, SpfResult::PermError);
    assert_eq!(bad.dns_lookups, 1);
    assert_eq!(bad.matched_directive, None);
    assert_eq!(bad.problem, Some(EvalProblem::BadExpansion { text: wide }));
}
