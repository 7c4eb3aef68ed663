//! Scan-level aggregation: every count the paper's Sections 5 and 6 report
//! over the crawled population, computed from the per-domain reports.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use spf_analyzer::{DomainReport, ErrorClass};
use spf_core::NotFoundCause;

/// Largest prefix length that counts as a "very large IP range" in
/// Table 3 (/0 through /16).
const LARGE_RANGE_MAX_PREFIX: u8 = 16;

/// Aggregated statistics over one scan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanAggregates {
    /// Number of scanned domains.
    pub total_domains: u64,
    /// Domains with ≥1 MX record (Figure 1).
    pub with_mx: u64,
    /// Domains with a (single) SPF record (Figure 1, Table 1).
    pub with_spf: u64,
    /// Domains with a `_dmarc` record (Figure 1, Table 1).
    pub with_dmarc: u64,
    /// Domains whose DMARC record parses.
    pub with_valid_dmarc: u64,
    /// Domains with both MX and SPF ("79.3 % for domains with MX record").
    pub with_mx_and_spf: u64,
    /// §5.1: SPF but no MX (10.4 % of no-MX domains).
    pub spf_without_mx: u64,
    /// §5.1: of those, how many are bare `-all`/`~all` deny-alls (53.1 %).
    pub spf_without_mx_deny_all: u64,
    /// Transient DNS failures excluded from analysis (1,179 in the paper).
    pub dns_transient: u64,
    /// Primary error class per domain (Figure 2).
    pub error_counts: BTreeMap<ErrorClass, u64>,
    /// Figure 3: sub-causes among record-not-found domains.
    pub not_found_causes: BTreeMap<NotFoundCause, u64>,
    /// Per-domain allowed-IP counts, in rank order (Figure 5's CDF input);
    /// only domains with SPF contribute.
    pub allowed_ip_counts: Vec<u64>,
    /// Domains allowing >100,000 IPv4 addresses (34.7 % in the paper).
    pub lax_domains: u64,
    /// Domains allowing fewer than 20 addresses ("one out of three").
    pub tight_domains: u64,
    /// §5.5: records lacking a restrictive all (427,767).
    pub permissive_all: u64,
    /// §5.5: domains whose own record uses `ptr` (233,167). Inherited
    /// ptr terms (e.g. via the ovh include) do not count here.
    pub uses_ptr: u64,
    /// §5.5: domains still publishing the deprecated type-99 RR (107,646).
    pub deprecated_spf_rr: u64,
    /// §5.5: domains using RFC 6652 `ra`/`rp`/`rr` (14).
    pub reporting_modifiers: u64,
    /// Figure 6: histogram of top-level include counts (index 0..=10; the
    /// 12th bucket counts >10).
    pub include_count_histogram: [u64; 12],
    /// Table 3 columns: for each prefix /0../16, how many domains have at
    /// least one network of that size via direct mechanisms vs includes.
    pub large_ranges_direct: BTreeMap<u8, u64>,
    /// See [`ScanAggregates::large_ranges_direct`].
    pub large_ranges_include: BTreeMap<u8, u64>,
    /// §6.2: domains with >100k addresses from direct mechanisms only.
    pub lax_via_direct: u64,
    /// §6.3: domains with >100k addresses arriving through includes.
    pub lax_via_include: u64,
    /// §6.3: domains using the include mechanism at all (67.0 %).
    pub uses_include: u64,
    /// §4.1: domains whose record carries an `ip6` term directly (0.5 %).
    pub uses_ip6: u64,
}

impl ScanAggregates {
    /// Compute all aggregates over a scan's reports (in rank order).
    pub fn compute(reports: &[DomainReport]) -> ScanAggregates {
        let mut agg = ScanAggregates {
            total_domains: reports.len() as u64,
            ..Default::default()
        };
        for report in reports {
            if report.has_mx {
                agg.with_mx += 1;
            }
            if report.has_dmarc {
                agg.with_dmarc += 1;
            }
            if report.dmarc_valid {
                agg.with_valid_dmarc += 1;
            }
            if report.dns_transient {
                agg.dns_transient += 1;
            }
            if report.uses_deprecated_spf_rr {
                agg.deprecated_spf_rr += 1;
            }
            if let Some(class) = report.primary_error {
                *agg.error_counts.entry(class).or_default() += 1;
                if class == ErrorClass::RecordNotFound {
                    let cause = report
                        .record
                        .as_ref()
                        .and_then(|r| {
                            r.errors
                                .iter()
                                .find(|e| e.class == ErrorClass::RecordNotFound)
                                .and_then(|e| e.not_found_cause)
                        })
                        // Multiple records at the root map to the
                        // multiple-SPF-records cause.
                        .unwrap_or(NotFoundCause::MultipleSpfRecords);
                    *agg.not_found_causes.entry(cause).or_default() += 1;
                }
            }
            if !report.has_spf {
                continue;
            }
            agg.with_spf += 1;
            if report.has_mx {
                agg.with_mx_and_spf += 1;
            } else {
                agg.spf_without_mx += 1;
            }
            let Some(record) = report.record.as_ref() else {
                continue;
            };
            if !report.has_mx && record.is_deny_all_only {
                agg.spf_without_mx_deny_all += 1;
            }
            let allowed = record.allowed_ip_count();
            agg.allowed_ip_counts.push(allowed);
            if allowed > crate::LAX_IP_THRESHOLD {
                agg.lax_domains += 1;
            }
            if allowed < 20 {
                agg.tight_domains += 1;
            }
            if !record.has_restrictive_all {
                agg.permissive_all += 1;
            }
            if record.uses_ptr_direct {
                agg.uses_ptr += 1;
            }
            if record.uses_reporting_modifiers {
                agg.reporting_modifiers += 1;
            }
            if record.uses_ip6 {
                agg.uses_ip6 += 1;
            }
            let includes = record.top_level_include_count;
            if includes > 0 {
                agg.uses_include += 1;
            }
            let bucket = includes.min(11);
            agg.include_count_histogram[bucket] += 1;

            // Table 3: domains with at least one very large network per
            // prefix class, split by how the network arrived.
            let mut direct_prefixes: Vec<u8> = record
                .direct_networks
                .iter()
                .map(|c| c.prefix_len())
                .filter(|p| *p <= LARGE_RANGE_MAX_PREFIX)
                .collect();
            direct_prefixes.sort_unstable();
            direct_prefixes.dedup();
            for p in direct_prefixes {
                *agg.large_ranges_direct.entry(p).or_default() += 1;
            }
            let mut include_prefixes: Vec<u8> = record
                .include_networks
                .iter()
                .map(|c| c.prefix_len())
                .filter(|p| *p <= LARGE_RANGE_MAX_PREFIX)
                .collect();
            include_prefixes.sort_unstable();
            include_prefixes.dedup();
            for p in include_prefixes {
                *agg.large_ranges_include.entry(p).or_default() += 1;
            }

            if allowed > crate::LAX_IP_THRESHOLD {
                let direct_only: u64 = record
                    .direct_networks
                    .iter()
                    .map(|c| c.address_count())
                    .sum();
                if direct_only > crate::LAX_IP_THRESHOLD {
                    agg.lax_via_direct += 1;
                }
                let via_include: u64 = record
                    .include_networks
                    .iter()
                    .map(|c| c.address_count())
                    .sum();
                if via_include > crate::LAX_IP_THRESHOLD {
                    agg.lax_via_include += 1;
                }
            }
        }
        agg
    }

    /// Total erroneous domains (Figure 2's population).
    pub fn total_errors(&self) -> u64 {
        self.error_counts.values().sum()
    }

    /// SPF adoption as a fraction of scanned domains.
    pub fn spf_rate(&self) -> f64 {
        self.with_spf as f64 / self.total_domains.max(1) as f64
    }

    /// DMARC adoption as a fraction of scanned domains.
    pub fn dmarc_rate(&self) -> f64 {
        self.with_dmarc as f64 / self.total_domains.max(1) as f64
    }

    /// SPF adoption among MX-bearing domains (the paper's 79.3 %).
    pub fn spf_rate_among_mx(&self) -> f64 {
        self.with_mx_and_spf as f64 / self.with_mx.max(1) as f64
    }

    /// §5.1: share of MX-less domains that still publish SPF (10.4 %).
    pub fn spf_rate_among_no_mx(&self) -> f64 {
        let no_mx = self.total_domains - self.with_mx;
        self.spf_without_mx as f64 / no_mx.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::{crawl, CrawlConfig};
    use spf_analyzer::Walker;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use spf_types::DomainName;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn aggregates_for(build: impl Fn(&ZoneStore) -> Vec<DomainName>) -> ScanAggregates {
        let store = Arc::new(ZoneStore::new());
        let domains = build(&store);
        let walker = Walker::new(ZoneResolver::new(store));
        let out = crawl(&walker, &domains, CrawlConfig::with_workers(2));
        ScanAggregates::compute(&out.reports)
    }

    #[test]
    fn adoption_rates() {
        let agg = aggregates_for(|store| {
            let mut domains = Vec::new();
            for i in 0..10 {
                let d = dom(&format!("d{i}.example"));
                if i < 6 {
                    store.add_txt(&d, "v=spf1 -all");
                }
                if i < 8 {
                    store.add_mx(&d, 10, &dom("mx.example.net"));
                }
                if i < 2 {
                    store.add_txt(&d.prepend_label("_dmarc").unwrap(), "v=DMARC1; p=none");
                }
                // Every domain must at least exist in DNS.
                store.add_a(&d, Ipv4Addr::new(203, 0, 113, (i + 1) as u8));
                domains.push(d);
            }
            domains
        });
        assert_eq!(agg.total_domains, 10);
        assert_eq!(agg.with_spf, 6);
        assert_eq!(agg.with_mx, 8);
        assert_eq!(agg.with_dmarc, 2);
        assert!((agg.spf_rate() - 0.6).abs() < 1e-9);
        assert!((agg.dmarc_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn spf_without_mx_and_deny_all() {
        let agg = aggregates_for(|store| {
            let parked = dom("parked.example");
            store.add_txt(&parked, "v=spf1 -all");
            let misconfigured = dom("odd.example");
            store.add_txt(&misconfigured, "v=spf1 ip4:192.0.2.1 -all");
            vec![parked, misconfigured]
        });
        assert_eq!(agg.spf_without_mx, 2);
        assert_eq!(agg.spf_without_mx_deny_all, 1);
        assert!((agg.spf_rate_among_no_mx() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn error_classes_counted_once_per_domain() {
        let agg = aggregates_for(|store| {
            let d = dom("err.example");
            // Both a syntax error and a missing include: the primary-class
            // priority picks record-not-found.
            store.add_txt(&d, "v=spf1 ipv4:1.2.3.4 include:gone.example -all");
            vec![d]
        });
        assert_eq!(agg.total_errors(), 1);
        assert_eq!(agg.error_counts.get(&ErrorClass::RecordNotFound), Some(&1));
        assert_eq!(
            agg.not_found_causes.get(&NotFoundCause::DomainNotFound),
            Some(&1)
        );
    }

    #[test]
    fn lax_and_tight_counts() {
        let agg = aggregates_for(|store| {
            let lax = dom("lax.example");
            store.add_txt(&lax, "v=spf1 ip4:10.0.0.0/8 -all");
            let tight = dom("tight.example");
            store.add_txt(&tight, "v=spf1 ip4:192.0.2.1 ip4:192.0.2.2 -all");
            vec![lax, tight]
        });
        assert_eq!(agg.lax_domains, 1);
        assert_eq!(agg.tight_domains, 1);
        assert_eq!(agg.lax_via_direct, 1);
        assert_eq!(agg.lax_via_include, 0);
        assert!((agg.lax_domains as f64 / agg.with_spf as f64 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn include_histogram_buckets() {
        let agg = aggregates_for(|store| {
            store.add_txt(&dom("p.example"), "v=spf1 ip4:198.51.100.1 -all");
            let zero = dom("zero.example");
            store.add_txt(&zero, "v=spf1 -all");
            let one = dom("one.example");
            store.add_txt(&one, "v=spf1 include:p.example -all");
            let many = dom("many.example");
            let mut rec = String::from("v=spf1");
            for _ in 0..12 {
                rec.push_str(" include:p.example");
            }
            rec.push_str(" -all");
            store.add_txt(&many, &rec);
            vec![zero, one, many]
        });
        assert_eq!(agg.include_count_histogram[0], 1);
        assert_eq!(agg.include_count_histogram[1], 1);
        assert_eq!(agg.include_count_histogram[11], 1); // >10 bucket
        assert_eq!(agg.uses_include, 2);
    }

    #[test]
    fn table3_columns_split_direct_vs_include() {
        let agg = aggregates_for(|store| {
            let direct = dom("direct.example");
            store.add_txt(&direct, "v=spf1 ip4:10.0.0.0/8 -all");
            let via_include = dom("customer.example");
            store.add_txt(&via_include, "v=spf1 include:big.example -all");
            store.add_txt(&dom("big.example"), "v=spf1 ip4:20.0.0.0/8 -all");
            vec![direct, via_include]
        });
        assert_eq!(agg.large_ranges_direct.get(&8), Some(&1));
        assert_eq!(agg.large_ranges_include.get(&8), Some(&1));
    }

    #[test]
    fn permissive_all_and_flags() {
        let agg = aggregates_for(|store| {
            let open = dom("open.example");
            store.add_txt(&open, "v=spf1 ip4:192.0.2.1");
            let ptr = dom("ptr.example");
            store.add_txt(&ptr, "v=spf1 ptr -all");
            let ra = dom("ra.example");
            store.add_txt(&ra, "v=spf1 mx ra=postmaster -all");
            store.add_mx(&ra, 10, &dom("mx.ra.example"));
            store.add_a(&dom("mx.ra.example"), Ipv4Addr::new(192, 0, 2, 77));
            let legacy = dom("legacy.example");
            store.add_txt(&legacy, "v=spf1 -all");
            store.add_spf_type99(&legacy, "v=spf1 -all");
            vec![open, ptr, ra, legacy]
        });
        assert_eq!(agg.permissive_all, 1);
        assert_eq!(agg.uses_ptr, 1);
        assert_eq!(agg.reporting_modifiers, 1);
        assert_eq!(agg.deprecated_spf_rr, 1);
    }
}
