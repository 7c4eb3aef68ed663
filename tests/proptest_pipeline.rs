//! Cross-crate property tests: generated-record round-trips through the
//! parser, and evaluator invariants that must hold for *any* record the
//! generator can produce.

use std::sync::Arc;

use proptest::prelude::*;
use spf_core::{check_host, parse_lenient, EvalContext, EvalPolicy, SpfResult};
use spf_dns::{ZoneResolver, ZoneStore};
use spf_testkit::{arb_domain, arb_qualifier, arb_record, arb_term, build_world};
use spf_types::{DomainName, Qualifier};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Valid generated records parse cleanly and round-trip through
    /// Display → parse → Display.
    #[test]
    fn generated_records_parse_clean_and_round_trip(record in arb_record(0..8, true)) {
        let parsed = parse_lenient(&record);
        prop_assert!(parsed.errors.is_empty(), "errors for {record:?}: {:?}", parsed.errors);
        let printed = parsed.record.to_string();
        let reparsed = parse_lenient(&printed);
        prop_assert!(reparsed.errors.is_empty());
        prop_assert_eq!(parsed.record, reparsed.record);
    }

    /// The evaluator is total and deterministic for any generated record,
    /// even with an empty DNS behind it.
    #[test]
    fn evaluator_is_total_and_deterministic(record in arb_record(0..8, true), ip in any::<u32>()) {
        let store = Arc::new(ZoneStore::new());
        let domain = DomainName::parse("prop.example").unwrap();
        store.add_txt(&domain, &record);
        let resolver = ZoneResolver::new(store);
        let ctx = EvalContext::mail_from(
            std::net::Ipv4Addr::from(ip).into(),
            "alice",
            domain.clone(),
        );
        let policy = EvalPolicy::default();
        let a = check_host(&resolver, &ctx, &domain, &policy);
        let b = check_host(&resolver, &ctx, &domain, &policy);
        prop_assert_eq!(&a, &b, "evaluation must be deterministic");
        // The result is one of the seven defined outcomes and the lookup
        // counter respects the policy bound whenever no error occurred.
        if a.problem.is_none() {
            prop_assert!(a.dns_lookups <= policy.max_dns_lookups + 1);
        }
    }

    /// A record ending in an explicit all directive can never produce
    /// `neutral` unless that all is `?all` (totality of the match chain).
    #[test]
    fn explicit_all_forecloses_neutral(
        terms in proptest::collection::vec(arb_term(true), 0..4),
        ip in any::<u32>()
    ) {
        // Filter out redirect= (which would shadow the all).
        let terms: Vec<String> = terms.into_iter().filter(|t| !t.starts_with("redirect")).collect();
        let record = format!("v=spf1 {} -all", terms.join(" "));
        let store = Arc::new(ZoneStore::new());
        let domain = DomainName::parse("prop.example").unwrap();
        store.add_txt(&domain, &record);
        let resolver = ZoneResolver::new(store);
        let ctx = EvalContext::mail_from(
            std::net::Ipv4Addr::from(ip).into(),
            "bob",
            domain.clone(),
        );
        let eval = check_host(&resolver, &ctx, &domain, &EvalPolicy::default());
        if eval.problem.is_none() {
            prop_assert_ne!(eval.result, SpfResult::Neutral, "record: {}", record);
            prop_assert_ne!(eval.result, SpfResult::None);
        }
    }

    /// Qualifier semantics: a bare `all` record yields exactly the
    /// qualifier's result for every sender.
    #[test]
    fn bare_all_yields_qualifier_result(ip in any::<u32>(), q in 0u8..4) {
        let (text, expected) = match q {
            0 => ("v=spf1 -all", SpfResult::Fail),
            1 => ("v=spf1 ~all", SpfResult::SoftFail),
            2 => ("v=spf1 ?all", SpfResult::Neutral),
            _ => ("v=spf1 +all", SpfResult::Pass),
        };
        let store = Arc::new(ZoneStore::new());
        let domain = DomainName::parse("prop.example").unwrap();
        store.add_txt(&domain, text);
        let resolver = ZoneResolver::new(store);
        let ctx = EvalContext::mail_from(
            std::net::Ipv4Addr::from(ip).into(),
            "bob",
            domain.clone(),
        );
        let eval = check_host(&resolver, &ctx, &domain, &EvalPolicy::default());
        prop_assert_eq!(eval.result, expected);
    }
}

#[test]
fn qualifier_helper_is_consistent_with_grammar() {
    for (sym, q) in [
        ('+', Qualifier::Pass),
        ('-', Qualifier::Fail),
        ('~', Qualifier::SoftFail),
        ('?', Qualifier::Neutral),
    ] {
        assert_eq!(Qualifier::from_symbol(sym), Some(q));
    }
}

// ---------------------------------------------------------------------
// Spoofability-matrix identity: cached engine vs bare check_host.
// ---------------------------------------------------------------------

/// A term generator whose include/a/mx targets point back into the
/// generated population (`d0.test` … `d{n-1}.test`), so random worlds
/// form real shared subtrees, self-includes and loops — the shapes the
/// subtree verdict cache must stay invisible on.
fn arb_pop_term(n: usize) -> impl Strategy<Value = String> {
    let ip = any::<u32>().prop_map(|v| std::net::Ipv4Addr::from(v).to_string());
    prop_oneof![
        (arb_qualifier(), ip.clone(), 8u8..=32).prop_map(|(q, ip, p)| format!("{q}ip4:{ip}/{p}")),
        (arb_qualifier(), ip).prop_map(|(q, ip)| format!("{q}ip4:{ip}")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}include:d{j}.test")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}a:d{j}.test")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}mx:d{j}.test")),
        (arb_qualifier(), 0..n).prop_map(|(q, j)| format!("{q}exists:d{j}.test")),
        (0..n).prop_map(|j| format!("redirect=d{j}.test")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ISSUE 5: the cached `SpoofMatrix` must agree *exactly* — verdict
    /// tallies, DNS-lookup charges and void-lookup charges — with
    /// per-domain uncached `check_host` calls, on arbitrary small
    /// populations full of shared includes, loops and void lookups.
    #[test]
    fn cached_matrix_matches_uncached_check_host(
        world in proptest::collection::vec(arb_domain(arb_pop_term(6)), 6),
        vantage_bits in proptest::collection::vec(any::<u32>(), 2),
    ) {
        use spf_crawler::{auth_matrix, CrawlConfig, VantageKind, VantagePoint};

        let (store, domains, first_ip4) = build_world(&world);
        // Two random vantages plus (when available) one drawn from a
        // published ip4 term, so pass verdicts are exercised too.
        let mut vantages: Vec<VantagePoint> = vantage_bits
            .iter()
            .enumerate()
            .map(|(i, bits)| VantagePoint {
                label: format!("v{i}"),
                kind: if i == 0 { VantageKind::SharedCoverage } else { VantageKind::Control },
                ip: std::net::Ipv4Addr::from(*bits),
            })
            .collect();
        if let Some(ip) = first_ip4 {
            vantages.push(VantagePoint {
                label: "inside".into(),
                kind: VantageKind::SharedCoverage,
                ip,
            });
        }

        let resolver = ZoneResolver::new(Arc::clone(&store));
        let (auth, _) = auth_matrix(
            &resolver,
            &domains,
            &vantages,
            CrawlConfig::with_workers(2),
        );
        let matrix = auth.spf;

        // The uncached reference: bare per-cell check_host.
        let policy = EvalPolicy::default();
        for (vi, vantage) in vantages.iter().enumerate() {
            let (mut pass, mut lookups, mut voids) = (0u64, 0u64, 0u64);
            let (mut none, mut errs) = (0u64, 0u64);
            for d in &domains {
                let ctx = EvalContext::mail_from(
                    vantage.ip.into(),
                    spf_crawler::SPOOF_SENDER_LOCAL,
                    d.clone(),
                );
                let eval = check_host(&resolver, &ctx, d, &policy);
                match eval.result {
                    SpfResult::Pass => pass += 1,
                    SpfResult::None => none += 1,
                    SpfResult::TempError | SpfResult::PermError => errs += 1,
                    _ => {}
                }
                lookups += eval.dns_lookups as u64;
                voids += eval.void_lookups as u64;
            }
            let row = &matrix.vantages[vi];
            prop_assert_eq!(row.pass, pass, "pass diverged at vantage {}", vi);
            prop_assert_eq!(row.none, none);
            prop_assert_eq!(row.temperror + row.permerror, errs);
            prop_assert_eq!(row.dns_lookups, lookups, "lookup charges diverged at vantage {}", vi);
            prop_assert_eq!(row.void_lookups, voids, "void charges diverged at vantage {}", vi);
        }
    }
}
