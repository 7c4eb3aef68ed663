//! Auth-stack property tests (DESIGN.md §13's safety rail, generalized):
//! for *any* record the generator can produce, under *any* combination
//! of DMARC policy and MTA-STS mode, the SPF component of
//! [`evaluate_auth`] is byte-identical to bare [`check_host`] — across
//! SPF verdict cache {off, on} × compiled backend {off, on} — and the
//! stop attribution is exactly the pure [`stop_layer`] function of the
//! three layer facts.

use std::sync::Arc;

use proptest::prelude::*;
use spf_core::{
    check_host, compile_policy, query_dmarc, query_mta_sts, stop_layer, AuthCache, CompileConfig,
    DmarcDisposition, EvalContext, EvalPolicy, SpfResult, StopLayer,
};
use spf_crawler::SpoofVerdictCache;
use spf_dns::{ZoneResolver, ZoneStore};
use spf_testkit::{arb_record, evaluate_auth};
use spf_types::DomainName;

/// Every DMARC layer shape: absent, monitoring, enforced at both
/// levels, sampled-down, and sampled-out (`pct=0` must behave as
/// unenforced).
fn arb_dmarc() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![
        Just(None),
        Just(Some("v=DMARC1; p=none")),
        Just(Some("v=DMARC1; p=quarantine")),
        Just(Some("v=DMARC1; p=reject")),
        Just(Some("v=DMARC1; p=reject; pct=0")),
        Just(Some("v=DMARC1; p=quarantine; pct=50")),
        Just(Some("v=DMARC1; sp=reject")), // misplaced version tag territory handled by parser
    ]
}

fn arb_sts() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![
        Just(None),
        Just(Some("v=STSv1; id=1; mode=testing")),
        Just(Some("v=STSv1; id=1; mode=enforce")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The byte-identity rail, quantified: `evaluate_auth(..).spf`
    /// serializes to the same bytes as bare `check_host`, whatever the
    /// record, the upper layers, the SPF memo, or the compiled backend.
    #[test]
    fn auth_outcome_spf_byte_identical_to_bare_check_host(
        record in arb_record(0..6, false),
        dmarc in arb_dmarc(),
        sts in arb_sts(),
        ip in any::<u32>(),
    ) {
        let store = Arc::new(ZoneStore::new());
        let domain = DomainName::parse("prop.example").unwrap();
        store.add_txt(&domain, &record);
        if let Some(d) = dmarc {
            store.add_txt(&DomainName::parse("_dmarc.prop.example").unwrap(), d);
        }
        if let Some(s) = sts {
            store.add_txt(&DomainName::parse("_mta-sts.prop.example").unwrap(), s);
        }
        let resolver = ZoneResolver::new(store);
        let ctx = EvalContext::mail_from(
            std::net::Ipv4Addr::from(ip).into(),
            "alice",
            domain.clone(),
        );
        let policy = EvalPolicy::default();
        let bare = check_host(&resolver, &ctx, &domain, &policy);
        let bare_json = serde_json::to_string(&bare).unwrap();
        let expected_dmarc = DmarcDisposition::from_lookup(&query_dmarc(&resolver, &domain));
        let expected_sts = query_mta_sts(&resolver, &domain);
        let compiled = compile_policy(&resolver, &domain, &CompileConfig::default());
        let auth_cache = AuthCache::new();
        for use_cache in [false, true] {
            for use_compiled in [false, true] {
                let spf_cache = SpoofVerdictCache::with_default_shards();
                let outcome = evaluate_auth(
                    &resolver,
                    &ctx,
                    &domain,
                    &policy,
                    use_compiled.then_some(&compiled),
                    if use_cache { Some(&spf_cache) } else { None },
                    Some(&auth_cache),
                );
                prop_assert_eq!(
                    serde_json::to_string(&outcome.spf).unwrap(),
                    bare_json.clone(),
                    "spf diverged for {:?} (cache={use_cache} compiled={use_compiled})",
                    record
                );
                // The layer facts are exactly the direct queries, and the
                // stop is the pure function of the three facts — the whole
                // pipeline's determinism reduces to this.
                prop_assert_eq!(&outcome.dmarc, &expected_dmarc);
                prop_assert_eq!(outcome.mta_sts, expected_sts);
                prop_assert_eq!(
                    outcome.stop,
                    stop_layer(outcome.spf.result, &outcome.dmarc, outcome.mta_sts)
                );
                // Boundary semantics that must never regress: a hard fail
                // stops at SPF and a pass is never stopped by an aligned
                // upper layer.
                match outcome.spf.result {
                    SpfResult::Fail => prop_assert_eq!(outcome.stop, StopLayer::Spf),
                    SpfResult::Pass => prop_assert_eq!(outcome.stop, StopLayer::None),
                    _ => {}
                }
                // `pct=0` samples the policy out entirely.
                if dmarc == Some("v=DMARC1; p=reject; pct=0") {
                    prop_assert_ne!(outcome.stop, StopLayer::Dmarc);
                }
            }
        }
    }

    /// The stacked evaluation is deterministic through a shared layer
    /// memo: two calls, one cold and one memo-served, produce identical
    /// outcomes and the memo registers the hits.
    #[test]
    fn warm_auth_cache_is_transparent(
        record in arb_record(0..6, false),
        dmarc in arb_dmarc(),
        ip in any::<u32>(),
    ) {
        let store = Arc::new(ZoneStore::new());
        let domain = DomainName::parse("prop.example").unwrap();
        store.add_txt(&domain, &record);
        if let Some(d) = dmarc {
            store.add_txt(&DomainName::parse("_dmarc.prop.example").unwrap(), d);
        }
        let resolver = ZoneResolver::new(store);
        let ctx = EvalContext::mail_from(
            std::net::Ipv4Addr::from(ip).into(),
            "alice",
            domain.clone(),
        );
        let policy = EvalPolicy::default();
        let cache = AuthCache::new();
        let cold = evaluate_auth(&resolver, &ctx, &domain, &policy, None, None, Some(&cache));
        let warm = evaluate_auth(&resolver, &ctx, &domain, &policy, None, None, Some(&cache));
        prop_assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        let stats = cache.stats();
        prop_assert_eq!(stats.dmarc_misses, 1);
        prop_assert_eq!(stats.dmarc_hits, 1);
    }
}
