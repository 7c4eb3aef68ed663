//! The seeded worlds the stress suites build at a given scale.

use std::sync::Arc;

use spf_analyzer::Walker;
use spf_crawler::{crawl, select_vantages, CrawlConfig, ProviderVantage, VantagePoint};
use spf_dns::ZoneResolver;
use spf_netsim::{build_spoof_world, Population, PopulationConfig, Scale, SpoofWorld};
use spf_types::DomainName;

/// The stress suites' seed.
pub const SEED: u64 = 0x5bf1_2023;

/// Parse a domain name literal; panics on an invalid one.
pub fn dom(name: &str) -> DomainName {
    DomainName::parse(name).expect("domain parses")
}

/// The calibrated population at `1:denominator`, seeded with [`SEED`].
pub fn population_at(denominator: u64) -> Population {
    Population::build(PopulationConfig {
        scale: Scale { denominator },
        seed: SEED,
    })
}

/// The spoof world at `1:denominator` plus its vantage set, seeded with
/// [`SEED`]. Vantage selection is deterministic, so every configuration
/// a suite compares shares it.
pub fn world_at(denominator: u64) -> (SpoofWorld, Vec<VantagePoint>) {
    let world = build_spoof_world(Scale { denominator }, SEED);
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&world.store)));
    let out = crawl(&walker, &world.domains, CrawlConfig::with_workers(4));
    let weighted = out.coverage.into_weighted();
    // A trimmed vantage set (2 shared + 2 providers ×2 + 1 control = 7):
    // what the suites stress is their configuration grid, and
    // per-vantage work only scales the wall clock.
    let providers: Vec<ProviderVantage> = world
        .providers
        .iter()
        .take(2)
        .map(|p| ProviderVantage {
            label: format!("hosting{}", p.id),
            web: p.web_ip,
            mta: p.mta_ip,
        })
        .collect();
    let vantages = select_vantages(&weighted, &providers, 2, 1, SEED);
    (world, vantages)
}
