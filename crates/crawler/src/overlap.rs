//! Population-scale overlap analytics: the first view that treats the
//! crawl output as *one corpus* instead of independent rows.
//!
//! The paper's §6 finding is that laxness is shared: a handful of cloud
//! ranges appear in thousands of SPF trees, so one rented address spoofs
//! whole swaths of the population at once. This module distills the
//! crawl's merged [`spf_types::CoverageMap`] (see
//! [`crate::CrawlOutput::coverage`]) and the include ecosystem into the
//! three §6-shaped answers:
//!
//! * **max coverage** — the single most-spoofable IPv4 address and how
//!   many domains authorize it;
//! * **coverage histogram** — how much address space is authorized by at
//!   least `k` domains, at power-of-two thresholds;
//! * **provider concentration** — the top include trees ranked by
//!   covered space (Table 4 in overlap form).
//!
//! Everything here is a pure function of deterministic inputs, so the
//! serialized report is byte-identical across worker / shard / transport
//! configurations (asserted by the `overlap_stress` suite).

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};
use spf_types::{DomainName, WeightedRanges};

use crate::ecosystem::IncludeStats;

/// How many provider rows an overlap report carries by default.
pub const DEFAULT_PROVIDER_ROWS: usize = 10;

/// One provider-concentration row: an include tree and the space it
/// injects into every customer's authorization set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderConcentration {
    /// The include target (e.g. `spf.protection.outlook.com`).
    pub domain: DomainName,
    /// Scanned domains referencing it at top level.
    pub used_by: u64,
    /// IPv4 addresses its subtree authorizes.
    pub covered_ips: u64,
    /// Its covered space as a fraction of the population's total covered
    /// space (0 when nothing is covered).
    pub share_of_union: f64,
}

/// The population's address-space overlap profile, ready for rendering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlapReport {
    /// SPF-bearing domains whose range sets were folded in.
    pub spf_domains: u64,
    /// Distinct weighted ranges in the profile (the sweep's output size).
    pub weighted_ranges: u64,
    /// Addresses authorized by at least one domain.
    pub total_covered: u64,
    /// The most-spoofable address: lowest address authorized by the most
    /// domains (`None` when no domain authorizes anything).
    pub max_coverage_addr: Option<Ipv4Addr>,
    /// How many domains authorize [`OverlapReport::max_coverage_addr`].
    pub max_coverage_domains: u64,
    /// `(k, addresses authorized by ≥ k domains)` at power-of-two `k`.
    pub histogram: Vec<(u64, u64)>,
    /// Top include trees by covered space.
    pub providers: Vec<ProviderConcentration>,
}

impl OverlapReport {
    /// Distill the crawl's weighted coverage profile and include
    /// ecosystem into the overlap report, keeping the `top_n` largest
    /// include trees by covered space.
    pub fn compute(
        weighted: &WeightedRanges,
        eco: &[IncludeStats],
        spf_domains: u64,
        top_n: usize,
    ) -> OverlapReport {
        let total_covered = weighted.total_covered();
        let (max_coverage_addr, max_coverage_domains) = match weighted.max_coverage() {
            Some((addr, domains)) => (Some(addr), domains),
            None => (None, 0),
        };
        let mut by_space: Vec<&IncludeStats> = eco.iter().collect();
        // Rank by covered space; ties break on the name so the report is
        // independent of the ecosystem's usage-ranked input order.
        by_space.sort_by(|a, b| {
            b.allowed_ips
                .cmp(&a.allowed_ips)
                .then_with(|| a.domain.cmp(&b.domain))
        });
        let providers = by_space
            .into_iter()
            .take(top_n)
            .map(|s| ProviderConcentration {
                domain: s.domain.clone(),
                used_by: s.used_by,
                covered_ips: s.allowed_ips,
                share_of_union: if total_covered == 0 {
                    0.0
                } else {
                    s.allowed_ips as f64 / total_covered as f64
                },
            })
            .collect();
        OverlapReport {
            spf_domains,
            weighted_ranges: weighted.range_count() as u64,
            total_covered,
            max_coverage_addr,
            max_coverage_domains,
            histogram: weighted.power_of_two_histogram(),
            providers,
        }
    }

    /// The fraction of SPF-bearing domains that authorize the
    /// most-spoofable address — the paper's "one address spoofs them
    /// all" number.
    pub fn max_coverage_share(&self) -> f64 {
        if self.spf_domains == 0 {
            0.0
        } else {
            self.max_coverage_domains as f64 / self.spf_domains as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::{crawl, CrawlConfig};
    use crate::ecosystem::include_ecosystem;
    use spf_analyzer::Walker;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::sync::Arc;

    /// Two providers — a big one used by most domains and a tiny one —
    /// plus one domain with its own direct range overlapping the big
    /// provider.
    fn build_world() -> (Arc<ZoneStore>, Vec<DomainName>) {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("big.provider.example"), "v=spf1 ip4:10.0.0.0/16 -all");
        store.add_txt(
            &dom("small.provider.example"),
            "v=spf1 ip4:198.51.100.0/30 -all",
        );
        let mut domains = Vec::new();
        for i in 0..8 {
            let d = dom(&format!("c{i}.example"));
            let record = if i < 6 {
                "v=spf1 include:big.provider.example -all".to_string()
            } else {
                "v=spf1 include:small.provider.example -all".to_string()
            };
            store.add_txt(&d, &record);
            domains.push(d);
        }
        let own = dom("own.example");
        store.add_txt(&own, "v=spf1 ip4:10.0.1.0/24 -all"); // inside the /16
        domains.push(own);
        (store, domains)
    }

    fn report_for(workers: usize) -> OverlapReport {
        let (store, domains) = build_world();
        let walker = Walker::new(ZoneResolver::new(store));
        let out = crawl(&walker, &domains, CrawlConfig::with_workers(workers));
        let eco = include_ecosystem(&out.reports, &walker);
        let spf = out.reports.iter().filter(|r| r.has_spf).count() as u64;
        OverlapReport::compute(&out.coverage.into_weighted(), &eco, spf, 5)
    }

    #[test]
    fn max_coverage_and_histogram() {
        let r = report_for(4);
        assert_eq!(r.spf_domains, 9);
        // The /16's most-contested /24 carries 6 provider customers plus
        // own.example's direct range.
        assert_eq!(r.max_coverage_domains, 7);
        assert_eq!(
            r.max_coverage_addr,
            Some("10.0.1.0".parse::<Ipv4Addr>().unwrap())
        );
        assert_eq!(r.total_covered, 65536 + 4);
        // Histogram: ≥1 and ≥2 cover the whole union (the small /30 has
        // two customers too), ≥4 only the /16; the ladder stops at max
        // weight 7.
        assert_eq!(r.histogram, vec![(1, 65540), (2, 65540), (4, 65536)]);
        assert!((r.max_coverage_share() - 7.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn providers_ranked_by_covered_space() {
        let r = report_for(2);
        assert_eq!(r.providers.len(), 2);
        assert_eq!(r.providers[0].domain, dom("big.provider.example"));
        assert_eq!(r.providers[0].used_by, 6);
        assert_eq!(r.providers[0].covered_ips, 65536);
        assert!(r.providers[0].share_of_union > 0.99);
        assert_eq!(r.providers[1].domain, dom("small.provider.example"));
        assert_eq!(r.providers[1].covered_ips, 4);
    }

    #[test]
    fn report_identical_across_worker_counts() {
        let reference = serde_json::to_string(&report_for(1)).unwrap();
        for workers in [2usize, 8] {
            assert_eq!(
                reference,
                serde_json::to_string(&report_for(workers)).unwrap(),
                "diverged at workers={workers}"
            );
        }
    }

    #[test]
    fn empty_population() {
        let store = Arc::new(ZoneStore::new());
        let walker = Walker::new(ZoneResolver::new(store));
        let out = crawl(&walker, &[], CrawlConfig::default());
        let r = OverlapReport::compute(&out.coverage.into_weighted(), &[], 0, 10);
        assert_eq!(r.max_coverage_addr, None);
        assert_eq!(r.total_covered, 0);
        assert_eq!(r.max_coverage_share(), 0.0);
        assert_eq!(r.histogram, vec![(1, 0)]);
        assert!(r.providers.is_empty());
    }
}
