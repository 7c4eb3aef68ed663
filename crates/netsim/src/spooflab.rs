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
//! [`build_spoof_world`] assembles that world.

use std::sync::Arc;

use spf_dns::ZoneStore;
use spf_types::DomainName;

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
}
