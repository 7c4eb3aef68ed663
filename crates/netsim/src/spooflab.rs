//! The spoofability-matrix world: one zone combining the calibrated
//! population with the Table 5 hosting providers.
//!
//! The verdict-matrix engine (§6 at population scale) asks "which domains
//! does `check_host()` authorize from attacker-reachable addresses?".
//! That needs three vantage families in a single evaluable world:
//!
//! * **shared-coverage addresses** — the top-K most-authorized addresses
//!   from the population's overlap profile;
//! * **hosting provider web/MTA addresses** — the rented-web-space attack
//!   of §6.4, which only bites when the providers' *customers* are part
//!   of the scanned population ([`build_hosting_into`] merges them in);
//! * **control addresses** — uniformly sampled addresses no domain
//!   authorizes, the matrix's negative baseline.
//!
//! [`build_spoof_world`] assembles the first world; [`build_include_heavy`]
//! builds the include-heavy stress shape, where every tenant's record is a
//! deep shared include chain — the configuration in which the subtree
//! verdict cache pays off hardest (docs/history/BENCH_5.json recorded it).

use std::net::Ipv4Addr;
use std::sync::Arc;

use spf_dns::ZoneStore;
use spf_types::DomainName;

use crate::blocks::AddressAllocator;
use crate::hosting::{build_hosting_into, HostingProvider};
use crate::population::{Population, PopulationConfig};
use crate::scale::Scale;

/// The combined population + hosting world the spoofability matrix runs
/// over.
pub struct SpoofWorld {
    /// Zone data for the whole world (population and hosting records).
    pub store: Arc<ZoneStore>,
    /// Every scanned domain: the ranked population first, then the
    /// hosting customers (their ranks start at
    /// [`SpoofWorld::population_len`]).
    pub domains: Vec<DomainName>,
    /// How many of [`SpoofWorld::domains`] belong to the calibrated
    /// population.
    pub population_len: usize,
    /// The five Table 5 hosting providers (web/MTA vantage addresses,
    /// port-25 and MTA-auth behaviour flags).
    pub providers: Vec<HostingProvider>,
}

/// Build the spoofability world at `scale` from `seed`: the calibrated
/// population plus the five hosting providers and their customer bases,
/// all in one zone. Deterministic in `(scale, seed)`.
pub fn build_spoof_world(scale: Scale, seed: u64) -> SpoofWorld {
    let population = Population::build(PopulationConfig { scale, seed });
    let providers = build_hosting_into(&population.store, scale);
    let mut domains = population.domains;
    let population_len = domains.len();
    for provider in &providers {
        domains.extend(provider.customers.iter().cloned());
    }
    SpoofWorld {
        store: population.store,
        domains,
        population_len,
        providers,
    }
}

/// Include chains in the include-heavy world (each chain is a distinct
/// shared provider tree).
pub const INCLUDE_HEAVY_CHAINS: usize = 4;

/// Include hops per chain. A tenant evaluation charges one `include:`
/// per hop — the tenant's own plus the `INCLUDE_HEAVY_DEPTH - 1`
/// internal hop-to-hop links — and the leaf's `mx` and `a` terms:
/// `INCLUDE_HEAVY_DEPTH + 2 = 8` of the 10-lookup budget (pinned by the
/// module test), so every tenant evaluates cleanly end to end.
pub const INCLUDE_HEAVY_DEPTH: usize = 6;

/// An include-heavy tenant world: `tenants` domains whose records are
/// nothing but a deep include chain shared chain-wide.
///
/// Every tenant's evaluation re-walks its whole chain — fetch, parse and
/// mechanism scan at each hop — unless a subtree verdict cache replays
/// it, which makes this the adversarial shape for the cached-vs-uncached
/// comparison (the `heavy_*` rows of docs/history/BENCH_5.json).
pub struct IncludeHeavyWorld {
    /// Zone data.
    pub store: Arc<ZoneStore>,
    /// The tenant domains, rank-ordered.
    pub domains: Vec<DomainName>,
    /// The chain-head include targets (`chain0.heavy.example`, …).
    pub chain_heads: Vec<DomainName>,
}

/// Build an include-heavy world with `tenants` domains. Tenant `i`
/// includes chain `i % INCLUDE_HEAVY_CHAINS`; each chain is
/// [`INCLUDE_HEAVY_DEPTH`] hops deep, every hop carrying its own `ip4`
/// range and the leaf resolving real `mx`/`a` names. Deterministic in
/// `tenants` alone (the zone has no sampled content).
pub fn build_include_heavy(tenants: usize) -> IncludeHeavyWorld {
    let store = Arc::new(ZoneStore::new());
    // Chain space: 96.0.0.0/6, clear of both the population regions and
    // the hosting case-study space.
    let mut alloc = AddressAllocator::new(Ipv4Addr::new(96, 0, 0, 0), 6);
    let mut chain_heads = Vec::with_capacity(INCLUDE_HEAVY_CHAINS);
    for chain in 0..INCLUDE_HEAVY_CHAINS {
        for hop in 0..INCLUDE_HEAVY_DEPTH {
            let name = DomainName::parse(&format!("hop{hop}.chain{chain}.heavy.example")).unwrap();
            let block = alloc.alloc_block(24);
            let record = if hop + 1 < INCLUDE_HEAVY_DEPTH {
                format!(
                    "v=spf1 ip4:{block} include:hop{}.chain{chain}.heavy.example -all",
                    hop + 1
                )
            } else {
                // The leaf does real address resolution: one mx and one
                // a term against names with published records.
                format!(
                    "v=spf1 ip4:{block} mx:relay.chain{chain}.heavy.example \
                     a:www.chain{chain}.heavy.example -all"
                )
            };
            store.add_txt(&name, &record);
            if hop == 0 {
                chain_heads.push(name);
            }
        }
        let relay = DomainName::parse(&format!("relay.chain{chain}.heavy.example")).unwrap();
        let mx_host = DomainName::parse(&format!("mx.chain{chain}.heavy.example")).unwrap();
        store.add_mx(&relay, 10, &mx_host);
        store.add_a(&mx_host, alloc.alloc_host());
        let www = DomainName::parse(&format!("www.chain{chain}.heavy.example")).unwrap();
        store.add_a(&www, alloc.alloc_host());
    }
    let mut domains = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let d = DomainName::parse(&format!("tenant{i}.heavy.example")).unwrap();
        store.add_txt(
            &d,
            &format!(
                "v=spf1 include:hop0.chain{}.heavy.example -all",
                i % INCLUDE_HEAVY_CHAINS
            ),
        );
        domains.push(d);
    }
    IncludeHeavyWorld {
        store,
        domains,
        chain_heads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_core::{check_host, EvalContext, EvalPolicy, SpfResult};
    use spf_dns::ZoneResolver;

    #[test]
    fn spoof_world_merges_population_and_hosting() {
        let world = build_spoof_world(
            Scale {
                denominator: 20_000,
            },
            0x5bf1_2023,
        );
        assert!(world.population_len > 0);
        assert!(world.domains.len() > world.population_len);
        assert_eq!(world.providers.len(), 5);
        // Hosted customers evaluate against the shared store: provider
        // 2's web IP is in its include, so a spoof from it passes.
        let resolver = ZoneResolver::new(Arc::clone(&world.store));
        let p2 = &world.providers[1];
        let victim = &p2.customers[0];
        let ctx = EvalContext::mail_from(p2.web_ip.into(), "ceo", victim.clone());
        let eval = check_host(&resolver, &ctx, victim, &EvalPolicy::default());
        assert_eq!(eval.result, SpfResult::Pass);
    }

    #[test]
    fn include_heavy_world_evaluates_cleanly() {
        let world = build_include_heavy(16);
        assert_eq!(world.domains.len(), 16);
        assert_eq!(world.chain_heads.len(), INCLUDE_HEAVY_CHAINS);
        let resolver = ZoneResolver::new(Arc::clone(&world.store));
        for d in &world.domains {
            let ctx = EvalContext::mail_from("203.0.113.99".parse().unwrap(), "ceo", d.clone());
            let eval = check_host(&resolver, &ctx, d, &EvalPolicy::default());
            // Outside every chain range: a clean fail, never permerror.
            assert_eq!(eval.result, SpfResult::Fail, "{d}");
            // The whole chain was walked: one include charge per hop
            // (tenant → hop0 → … → leaf) plus the leaf's mx and a.
            assert_eq!(eval.dns_lookups, INCLUDE_HEAVY_DEPTH + 2);
        }
    }
}
