//! The include ecosystem: per-include usage and weight statistics behind
//! Table 4 (top-20 includes), Figure 4 (includes exceeding the lookup
//! limit), Figure 7 (subnet sizes inside includes) and Figure 8 (usage ×
//! allowed-IP heatmap).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use spf_analyzer::{DomainReport, Walker};
use spf_dns::Resolver;
use spf_types::{DomainHashBuilder, DomainName};

/// Statistics for one include target across the whole scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncludeStats {
    /// The included domain (e.g. `spf.protection.outlook.com`).
    pub domain: DomainName,
    /// How many scanned domains reference it at top level ("Used by").
    pub used_by: u64,
    /// IPv4 addresses its subtree authorizes ("Allowed IPs").
    pub allowed_ips: u64,
    /// DNS-querying terms its own evaluation needs (Figure 4's x-axis);
    /// `> 10` means every customer inherits a lookup-limit error.
    pub dns_lookups: usize,
    /// Prefix lengths of the IPv4 networks its subtree contributes
    /// (Figure 7's distribution).
    pub subnet_prefixes: Vec<u8>,
    /// The include relies on the discouraged `ptr` mechanism
    /// (Table 4 flags mx.ovh.com for this).
    pub uses_ptr: bool,
}

/// Build the include ecosystem from a scan.
///
/// `reports` supplies the usage counts (top-level `include:` references);
/// the walker's memo cache supplies each include's own analysis without
/// re-resolving anything.
pub fn include_ecosystem<R: Resolver>(
    reports: &[DomainReport],
    walker: &Walker<R>,
) -> Vec<IncludeStats> {
    let mut usage: HashMap<DomainName, u64, DomainHashBuilder> = HashMap::default();
    for report in reports {
        let Some(record) = report.record.as_ref() else {
            continue;
        };
        for target in &record.include_targets {
            *usage.entry(target.clone()).or_default() += 1;
        }
    }
    let mut stats: Vec<IncludeStats> = usage
        .into_iter()
        .map(|(domain, used_by)| {
            let analysis = walker.analyze(&domain);
            let mut subnet_prefixes: Vec<u8> = analysis
                .direct_networks
                .iter()
                .chain(analysis.include_networks.iter())
                .map(|c| c.prefix_len())
                .collect();
            subnet_prefixes.sort_unstable();
            IncludeStats {
                domain,
                used_by,
                allowed_ips: analysis.allowed_ip_count(),
                // The include term itself is one lookup, plus its subtree.
                dns_lookups: 1 + analysis.subtree_lookups,
                subnet_prefixes,
                uses_ptr: analysis.uses_ptr,
            }
        })
        .collect();
    stats.sort_by(|a, b| b.used_by.cmp(&a.used_by).then(a.domain.cmp(&b.domain)));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::{crawl, CrawlConfig};
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::dom;
    use std::sync::Arc;

    #[test]
    fn usage_counts_and_ips() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("big.provider.example"), "v=spf1 ip4:10.0.0.0/16 -all");
        store.add_txt(
            &dom("small.provider.example"),
            "v=spf1 ip4:198.51.100.1 -all",
        );
        let mut domains = Vec::new();
        for i in 0..10 {
            let d = dom(&format!("c{i}.example"));
            let target = if i < 7 {
                "big.provider.example"
            } else {
                "small.provider.example"
            };
            store.add_txt(&d, &format!("v=spf1 include:{target} -all"));
            domains.push(d);
        }
        let walker = Walker::new(ZoneResolver::new(store));
        let out = crawl(&walker, &domains, CrawlConfig::with_workers(2));
        let eco = include_ecosystem(&out.reports, &walker);
        assert_eq!(eco.len(), 2);
        assert_eq!(eco[0].domain, dom("big.provider.example"));
        assert_eq!(eco[0].used_by, 7);
        assert_eq!(eco[0].allowed_ips, 65536);
        assert_eq!(eco[1].used_by, 3);
        assert_eq!(eco[1].allowed_ips, 1);
        let top = &eco[..1];
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].domain, dom("big.provider.example"));
    }

    #[test]
    fn lookup_heavy_include_flagged() {
        let store = Arc::new(ZoneStore::new());
        // A bluehost-style include fanning out to 13 nested includes.
        let mut rec = String::from("v=spf1");
        for i in 0..13 {
            rec.push_str(&format!(" include:n{i}.example"));
        }
        rec.push_str(" -all");
        store.add_txt(&dom("fat.example"), &rec);
        for i in 0..13 {
            store.add_txt(&dom(&format!("n{i}.example")), "v=spf1 ip4:10.9.0.1 -all");
        }
        let customer = dom("victim.example");
        store.add_txt(&customer, "v=spf1 include:fat.example -all");
        let walker = Walker::new(ZoneResolver::new(store));
        let out = crawl(&walker, &[customer], CrawlConfig::with_workers(1));
        let eco = include_ecosystem(&out.reports, &walker);
        let over: Vec<&IncludeStats> = eco.iter().filter(|s| s.dns_lookups > 10).collect();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].dns_lookups, 14); // the include itself + 13 nested
    }

    #[test]
    fn subnet_prefixes_collected() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(
            &dom("mixed.provider.example"),
            "v=spf1 ip4:192.0.2.1 ip4:198.51.100.0/24 ip4:10.0.0.0/8 -all",
        );
        let customer = dom("c.example");
        store.add_txt(&customer, "v=spf1 include:mixed.provider.example -all");
        let walker = Walker::new(ZoneResolver::new(store));
        let out = crawl(&walker, &[customer], CrawlConfig::with_workers(1));
        let eco = include_ecosystem(&out.reports, &walker);
        assert_eq!(eco[0].subnet_prefixes, vec![8, 24, 32]);
    }
}
