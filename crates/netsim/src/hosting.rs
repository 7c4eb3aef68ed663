//! The web-hosting world behind the Section 6.4 case study (Table 5).
//!
//! The authors rented web space at five providers and tried to send
//! SPF-valid spoofed mail two ways: opening an SMTP connection straight
//! from the shared web space, and handing the mail to the provider's local
//! MTA via PHP `mail()`. Whether either works is decided by three provider
//! properties, reproduced here:
//!
//! * does the recommended SPF record authorize the *shared web-space IP*
//!   (the `a`-mechanism-on-shared-hosting risk of §7.1)?
//! * does it authorize the *provider MTA IP*?
//! * does the provider block outbound port 25 from the web space, and does
//!   its MTA require authentication before relaying?
//!
//! The spoofing harness in `spf-smtp` connects through real TCP and lets
//! the receiving MTA's `check_host()` decide — nothing here shortcuts the
//! verdict.

use std::net::Ipv4Addr;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spf_dns::ZoneStore;
use spf_types::DomainName;

use crate::blocks::AddressAllocator;
use crate::scale::Scale;

/// Behavioural profile of one hosting provider.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostingProvider {
    /// Provider index (1-based, like Table 5).
    pub id: usize,
    /// The include target the provider tells customers to add.
    pub include_domain: DomainName,
    /// Customer domains hosted (and configured as recommended).
    pub customers: Vec<DomainName>,
    /// The shared web-space address an attacker's rented account sits on.
    pub web_ip: Ipv4Addr,
    /// The provider MTA used by `mail()`-style submission.
    pub mta_ip: Ipv4Addr,
    /// Total addresses the recommended record authorizes (Table 5).
    pub allowed_ips: u64,
    /// Outbound port 25 from the web space is blocked (§7.2's
    /// recommendation).
    pub blocks_port25: bool,
    /// The MTA relays only for authenticated senders of the claimed
    /// domain (§7.2's recommendation).
    pub mta_requires_auth: bool,
}

/// The five-provider world.
pub struct HostingWorld {
    /// Shared zone data for the case study.
    pub store: Arc<ZoneStore>,
    /// Providers 1–5 in Table 5 order.
    pub providers: Vec<HostingProvider>,
}

struct ProviderSpec {
    affected_full: u64,
    allowed_ips: u64,
    web_in_spf: bool,
    mta_in_spf: bool,
    blocks_port25: bool,
    mta_requires_auth: bool,
}

/// Table 5, decomposed into the causal flags:
///
/// | # | Success    | Domains | Allowed IPs | reproduced by |
/// |---|-----------|---------|-------------|----------------|
/// | 1 | MTA       | 24,959  | 177,168     | port 25 blocked, open MTA in SPF |
/// | 2 | SMTP, MTA | 713     | 514         | web IP in SPF, open MTA in SPF |
/// | 3 | MTA       | 264     | 2,052       | port 25 blocked, open MTA in SPF |
/// | 4 | SMTP      | 159     | 3,074       | web IP in SPF, MTA requires auth |
/// | 5 | None      | 0       | 672         | port 25 blocked, MTA requires auth |
const SPECS: [ProviderSpec; 5] = [
    ProviderSpec {
        affected_full: 24_959,
        allowed_ips: 177_168,
        web_in_spf: false,
        mta_in_spf: true,
        blocks_port25: true,
        mta_requires_auth: false,
    },
    ProviderSpec {
        affected_full: 713,
        allowed_ips: 514,
        web_in_spf: true,
        mta_in_spf: true,
        blocks_port25: false,
        mta_requires_auth: false,
    },
    ProviderSpec {
        affected_full: 264,
        allowed_ips: 2_052,
        web_in_spf: false,
        mta_in_spf: true,
        blocks_port25: true,
        mta_requires_auth: false,
    },
    ProviderSpec {
        affected_full: 159,
        allowed_ips: 3_074,
        web_in_spf: true,
        mta_in_spf: false,
        blocks_port25: false,
        mta_requires_auth: true,
    },
    ProviderSpec {
        affected_full: 120,
        allowed_ips: 672,
        web_in_spf: false,
        mta_in_spf: false,
        blocks_port25: true,
        mta_requires_auth: true,
    },
];

/// Build the hosting world at the given scale (provider 5's customer base
/// is sized arbitrarily — none of them are spoofable).
pub fn build_hosting(scale: Scale) -> HostingWorld {
    let store = Arc::new(ZoneStore::new());
    let providers = build_hosting_into(&store, scale);
    HostingWorld { store, providers }
}

/// Build the five hosting providers *into an existing zone store* — the
/// spoofability-matrix world (`crate::spooflab`) co-locates them with the
/// calibrated population so provider web/MTA vantage points evaluate
/// against real hosted customers. The case-study address space
/// (12.0.0.0/6) is disjoint from every population region by
/// construction, so the merge never collides.
pub fn build_hosting_into(store: &Arc<ZoneStore>, scale: Scale) -> Vec<HostingProvider> {
    // Case-study space: 12.0.0.0/6, disjoint from the population regions.
    let mut alloc = AddressAllocator::new(Ipv4Addr::new(12, 0, 0, 0), 6);
    let mut providers = Vec::with_capacity(SPECS.len());
    for (idx, spec) in SPECS.iter().enumerate() {
        let id = idx + 1;
        let include_domain = DomainName::parse(&format!("spf.hosting{id}.example")).unwrap();
        let web_ip = alloc.alloc_host();
        let mta_ip = alloc.alloc_host();
        // Fill the record up to the exact Table 5 address count.
        let special = u64::from(spec.web_in_spf) + u64::from(spec.mta_in_spf);
        let filler = spec.allowed_ips - special;
        let mut terms: Vec<String> = Vec::new();
        if spec.mta_in_spf {
            terms.push(format!("ip4:{mta_ip}"));
        }
        if spec.web_in_spf {
            terms.push(format!("ip4:{web_ip}"));
        }
        for block in alloc.alloc_exact(filler) {
            terms.push(format!("ip4:{block}"));
        }
        store.add_txt(&include_domain, &format!("v=spf1 {} -all", terms.join(" ")));

        let customer_count = scale.of_min1(spec.affected_full).max(2) as usize;
        let mut customers = Vec::with_capacity(customer_count);
        for c in 0..customer_count {
            let d = DomainName::parse(&format!("shop{c}.hosted{id}.example")).unwrap();
            store.add_txt(&d, &format!("v=spf1 include:{include_domain} -all"));
            store.add_mx(
                &d,
                10,
                &DomainName::parse(&format!("mx.hosting{id}.example")).unwrap(),
            );
            customers.push(d);
        }
        providers.push(HostingProvider {
            id,
            include_domain,
            customers,
            web_ip,
            mta_ip,
            allowed_ips: spec.allowed_ips,
            blocks_port25: spec.blocks_port25,
            mta_requires_auth: spec.mta_requires_auth,
        });
    }
    providers
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_analyzer::Walker;
    use spf_dns::ZoneResolver;

    #[test]
    fn allowed_ips_match_table5() {
        let world = build_hosting(Scale { denominator: 100 });
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&world.store)));
        for (provider, spec) in world.providers.iter().zip(SPECS.iter()) {
            let analysis = walker.analyze(&provider.include_domain);
            assert_eq!(
                analysis.allowed_ip_count(),
                spec.allowed_ips,
                "provider {} allowed IPs",
                provider.id
            );
            assert!(analysis.errors.is_empty());
        }
    }

    #[test]
    fn inclusion_flags_reflected_in_records() {
        let world = build_hosting(Scale { denominator: 100 });
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&world.store)));
        for (provider, spec) in world.providers.iter().zip(SPECS.iter()) {
            let analysis = walker.analyze(&provider.include_domain);
            assert_eq!(
                analysis.ips.contains(provider.web_ip),
                spec.web_in_spf,
                "provider {} web ip",
                provider.id
            );
            assert_eq!(
                analysis.ips.contains(provider.mta_ip),
                spec.mta_in_spf,
                "provider {} mta ip",
                provider.id
            );
        }
    }

    #[test]
    fn customers_pass_from_authorized_ips_only() {
        use spf_core::{check_host, EvalContext, EvalPolicy, SpfResult};
        let world = build_hosting(Scale { denominator: 1000 });
        let resolver = ZoneResolver::new(Arc::clone(&world.store));
        // Provider 2 includes both the web and MTA IPs.
        let p2 = &world.providers[1];
        let victim = &p2.customers[0];
        for ip in [p2.web_ip, p2.mta_ip] {
            let ctx = EvalContext::mail_from(ip.into(), "ceo", victim.clone());
            let eval = check_host(&resolver, &ctx, victim, &EvalPolicy::default());
            assert_eq!(eval.result, SpfResult::Pass, "provider 2 ip {ip}");
        }
        // Provider 5 includes neither.
        let p5 = &world.providers[4];
        let victim5 = &p5.customers[0];
        for ip in [p5.web_ip, p5.mta_ip] {
            let ctx = EvalContext::mail_from(ip.into(), "ceo", victim5.clone());
            let eval = check_host(&resolver, &ctx, victim5, &EvalPolicy::default());
            assert_eq!(eval.result, SpfResult::Fail, "provider 5 ip {ip}");
        }
    }

    #[test]
    fn customer_counts_scale() {
        let world = build_hosting(Scale { denominator: 100 });
        assert_eq!(world.providers[0].customers.len(), 250); // 24,959 / 100
        assert_eq!(world.providers[1].customers.len(), 7);
        assert!(world.providers[4].customers.len() >= 2);
    }
}
