//! Cloud-tenancy presets: synthetic worlds whose *overlap shape* is the
//! experimental variable.
//!
//! The calibrated [`crate::Population`] reproduces the paper's marginals,
//! which fixes its overlap profile; these presets instead give worlds at
//! both ends of the provider-concentration spectrum so the sweep-line's
//! cost model (O(B log B) in the *boundary* count, not the domain count)
//! can be measured as the shape varies (docs/history/BENCH_4.json did):
//!
//! * [`TenancyPreset::MegaProviders`] — a handful of hyperscalers with
//!   huge ranges, each included by thousands of tenants. Few distinct
//!   boundaries, extreme coverage weights: the paper's §6 cloud story.
//! * [`TenancyPreset::LongTail`] — many small providers plus per-domain
//!   direct ranges. Boundary count grows with the population, weights
//!   stay low: the self-hosted world the cloud displaced.
//!
//! Both presets are deterministic in `(scale, seed)` and build real
//! zones, so they run through the full crawl pipeline (memory or wire).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spf_dns::ZoneStore;
use spf_types::{DomainName, Ipv4Cidr};

use crate::blocks::AddressAllocator;
use crate::scale::Scale;

/// Which overlap shape a tenancy world exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenancyPreset {
    /// Four hyperscale providers (one `/10`…`/13` each); every tenant
    /// includes one or two of them and nothing else. Maximizes coverage
    /// weight per boundary.
    MegaProviders,
    /// One small provider (`/24`) per ~48 tenants plus a direct `/32`
    /// per tenant. Maximizes boundaries per unit of covered space.
    LongTail,
}

impl TenancyPreset {
    /// The preset's identifier in generated names and reports.
    pub fn key(&self) -> &'static str {
        match self {
            TenancyPreset::MegaProviders => "mega",
            TenancyPreset::LongTail => "long_tail",
        }
    }
}

/// Configuration of a tenancy world.
#[derive(Debug, Clone, Copy)]
pub struct TenancyConfig {
    /// Population scale (1:N of the paper's 12.8M domains).
    pub scale: Scale,
    /// Overlap shape.
    pub preset: TenancyPreset,
    /// RNG seed; same `(scale, preset, seed)` ⇒ identical world.
    pub seed: u64,
}

/// A generated tenancy world, ready to crawl.
pub struct TenancyWorld {
    /// The zone backing the world.
    pub store: Arc<ZoneStore>,
    /// The ranked tenant domains.
    pub domains: Vec<DomainName>,
    /// Provider include targets (not part of [`TenancyWorld::domains`]).
    pub providers: Vec<DomainName>,
}

/// The four hyperscaler prefixes of [`TenancyPreset::MegaProviders`]:
/// 4M, 2M, 1M and 512k addresses.
const MEGA_PREFIXES: [u8; 4] = [10, 11, 12, 13];

/// Tenants per small provider under [`TenancyPreset::LongTail`].
const LONG_TAIL_TENANTS_PER_PROVIDER: u64 = 48;

/// Build a tenancy world. Tenant count is `scale.approx_domains()`, the
/// same sizing rule as the calibrated population.
pub fn build_tenancy(config: TenancyConfig) -> TenancyWorld {
    let store = Arc::new(ZoneStore::new());
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7e4a_0c15);
    let tenants = config.scale.approx_domains().max(1);
    // Providers allocate from 10/8 so the two presets never depend on
    // how much space the tenants' own ranges consume.
    let mut provider_alloc = AddressAllocator::new("10.0.0.0".parse().unwrap(), 8);
    let mut tenant_alloc = AddressAllocator::new("100.64.0.0".parse().unwrap(), 10);

    let provider_count = match config.preset {
        TenancyPreset::MegaProviders => MEGA_PREFIXES.len() as u64,
        TenancyPreset::LongTail => tenants.div_ceil(LONG_TAIL_TENANTS_PER_PROVIDER),
    };
    let mut providers = Vec::with_capacity(provider_count as usize);
    for i in 0..provider_count {
        let name = DomainName::parse(&format!("spf.{}{i}.tenancy.example", config.preset.key()))
            .expect("generated provider names are valid");
        let block = match config.preset {
            TenancyPreset::MegaProviders => provider_alloc.alloc_block(MEGA_PREFIXES[i as usize]),
            TenancyPreset::LongTail => {
                // Take the lower /24 of a /23 so consecutive providers
                // never abut: adjacent equal-weight ranges would merge in
                // the sweep and flatten the boundary count the preset
                // exists to maximize.
                let pair = provider_alloc.alloc_block(23);
                Ipv4Cidr::new(pair.raw_address(), 24).expect("24 is a valid prefix")
            }
        };
        store.add_txt(&name, &format!("v=spf1 ip4:{block} -all"));
        providers.push(name);
    }

    let mut domains = Vec::with_capacity(tenants as usize);
    for t in 0..tenants {
        let name = DomainName::parse(&format!("t{t}.{}.tenancy.example", config.preset.key()))
            .expect("generated tenant names are valid");
        let record = match config.preset {
            TenancyPreset::MegaProviders => {
                // Every tenant rides one hyperscaler; a third ride two —
                // the multi-cloud overlap the sweep has to stack. The
                // second pick is drawn from the *other* providers so a
                // two-cloud tenant never degenerates into a duplicate
                // include (which would flatten to one set).
                let first_idx = rng.random_range(0..providers.len());
                let first = &providers[first_idx];
                if rng.random_range(0..3u32) == 0 {
                    let offset = 1 + rng.random_range(0..providers.len() - 1);
                    let second = &providers[(first_idx + offset) % providers.len()];
                    format!("v=spf1 include:{first} include:{second} -all")
                } else {
                    format!("v=spf1 include:{first} -all")
                }
            }
            TenancyPreset::LongTail => {
                // Tenants cluster onto their neighborhood provider and
                // add a direct host of their own: two fresh boundaries
                // per tenant. Hosts sit on /30 spacing so neighbouring
                // tenants' singletons cannot coalesce into one range.
                let provider = &providers[(t / LONG_TAIL_TENANTS_PER_PROVIDER) as usize];
                let host = tenant_alloc.alloc_block(30).raw_address();
                format!("v=spf1 ip4:{host} include:{provider} -all")
            }
        };
        store.add_txt(&name, &record);
        domains.push(name);
    }

    TenancyWorld {
        store,
        domains,
        providers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_analyzer::Walker;
    use spf_crawler::{crawl, CrawlConfig};
    use spf_dns::ZoneResolver;

    fn world(preset: TenancyPreset) -> TenancyWorld {
        build_tenancy(TenancyConfig {
            scale: Scale {
                denominator: 20_000,
            }, // ≈641 tenants
            preset,
            seed: 7,
        })
    }

    fn weighted(world: &TenancyWorld) -> (u64, usize, u64) {
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&world.store)));
        let out = crawl(&walker, &world.domains, CrawlConfig::with_workers(4));
        let mut coverage = out.coverage;
        let boundaries = coverage.boundary_count();
        let w = coverage.into_weighted();
        (w.max_weight(), boundaries, w.total_covered())
    }

    #[test]
    fn mega_concentrates_long_tail_spreads() {
        let mega = world(TenancyPreset::MegaProviders);
        assert_eq!(mega.providers.len(), 4);
        let tail = world(TenancyPreset::LongTail);
        assert_eq!(tail.providers.len(), 641usize.div_ceil(48));
        let (mega_max, mega_bounds, _) = weighted(&mega);
        let (tail_max, tail_bounds, _) = weighted(&tail);
        // The mega world stacks hundreds of tenants onto few boundaries;
        // the long tail does the opposite.
        assert!(mega_max > 100, "mega max weight {mega_max}");
        assert!(mega_bounds < 64, "mega boundaries {mega_bounds}");
        assert!(tail_max <= 48 + 1, "tail max weight {tail_max}");
        assert!(tail_bounds > 1000, "tail boundaries {tail_bounds}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = world(TenancyPreset::MegaProviders);
        let b = world(TenancyPreset::MegaProviders);
        assert_eq!(a.domains, b.domains);
        let record = |w: &TenancyWorld, i: usize| w.store.txt_strings(&w.domains[i]);
        for i in [0usize, 100, 640] {
            let texts = record(&a, i);
            assert!(!texts.is_empty());
            assert_eq!(texts, record(&b, i));
        }
    }

    #[test]
    fn long_tail_crawls_clean() {
        let tail = world(TenancyPreset::LongTail);
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&tail.store)));
        let out = crawl(&walker, &tail.domains, CrawlConfig::with_workers(2));
        assert!(out.reports.iter().all(|r| r.has_spf && !r.has_error()));
    }
}
