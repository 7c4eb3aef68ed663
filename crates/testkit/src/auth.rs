//! The single-pair auth composition the property suites pin the layer
//! algebra with. The matrix path composes rows itself
//! (`spf_crawler::evaluate_auth_row`); this is its one-pair reference.

use spf_core::{
    auth_layers, check_host, check_host_cached, AuthCache, AuthOutcome, CompiledPolicy,
    EvalContext, EvalPolicy, VerdictCache,
};
use spf_dns::Resolver;
use spf_types::DomainName;

/// Evaluate the full auth stack for one `(ip, domain)` pair.
///
/// The SPF component routes through exactly the machinery the caller
/// selects — `compiled` first (falling back on a residue miss), then
/// `spf_cache` (the subtree memo), then bare [`check_host`] — and is
/// stored unmodified, which is what keeps it byte-identical to the bare
/// verdict. DMARC and MTA-STS lookups go through `auth_cache` when
/// given, straight to the resolver otherwise.
pub fn evaluate_auth<R: Resolver + ?Sized>(
    resolver: &R,
    ctx: &EvalContext,
    domain: &DomainName,
    policy: &EvalPolicy,
    compiled: Option<&CompiledPolicy>,
    spf_cache: Option<&dyn VerdictCache>,
    auth_cache: Option<&AuthCache>,
) -> AuthOutcome {
    let spf = match compiled.and_then(|c| c.verdict(ctx.ip)) {
        Some(eval) => eval,
        None => match spf_cache {
            Some(cache) => check_host_cached(resolver, ctx, domain, policy, cache),
            None => check_host(resolver, ctx, domain, policy),
        },
    };
    let (dmarc, mta_sts) = auth_layers(resolver, domain, auth_cache);
    AuthOutcome::compose(spf, dmarc, mta_sts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom;
    use spf_core::{SpfResult, StopLayer};
    use spf_dns::{ZoneResolver, ZoneStore};
    use std::net::IpAddr;
    use std::sync::Arc;

    #[test]
    fn evaluate_auth_spf_component_matches_bare_check_host() {
        let store = Arc::new(ZoneStore::new());
        let resolver = ZoneResolver::new(Arc::clone(&store));
        let d = dom("victim.example");
        store.add_txt(&d, "v=spf1 ip4:192.0.2.0/24 -all");
        store.add_txt(
            &d.prepend_label("_dmarc").unwrap(),
            "v=DMARC1; p=quarantine",
        );
        let policy = EvalPolicy::default();
        for ip in ["192.0.2.5", "198.51.100.9"] {
            let ip: IpAddr = ip.parse().unwrap();
            let ctx = EvalContext::mail_from(ip, "attacker", d.clone());
            let bare = check_host(&resolver, &ctx, &d, &policy);
            let outcome = evaluate_auth(&resolver, &ctx, &d, &policy, None, None, None);
            assert_eq!(
                serde_json::to_string(&outcome.spf).unwrap(),
                serde_json::to_string(&bare).unwrap()
            );
            let expected = if bare.result == SpfResult::Pass {
                StopLayer::None
            } else {
                StopLayer::Spf
            };
            assert_eq!(outcome.stop, expected);
        }
    }
}
