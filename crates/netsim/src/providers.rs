//! The provider ecosystem: Table 4's top-20 includes (exact allowed-IP
//! counts), the lookup-heavy "fat" includes behind Figure 4 (bluehost's
//! recommended record needed 14 DNS lookups), the cafe24-style target
//! publishing multiple SPF records, and the long tail of small includes
//! whose network-size distribution reproduces Table 3's include column.

use std::net::Ipv4Addr;
use std::sync::Arc;

use spf_dns::ZoneStore;
use spf_types::{DomainName, Ipv4Cidr};

use crate::blocks::AddressAllocator;
use crate::scale::Scale;

/// One Table 4 row: include domain, full-scale user count, allowed IPs.
#[derive(Debug, Clone, Copy)]
pub struct ProviderSpec {
    /// The include target name.
    pub name: &'static str,
    /// "Used by" — full-scale customer count from Table 4.
    pub used_by: u64,
    /// "Allowed IPs" — exact address count from Table 4.
    pub allowed_ips: u64,
    /// Table 4 footnote: the provider relies on the `ptr` mechanism.
    pub uses_ptr: bool,
}

/// Table 4 of the paper, verbatim.
pub const TABLE4: [ProviderSpec; 20] = [
    ProviderSpec {
        name: "spf.protection.outlook.com",
        used_by: 2_456_916,
        allowed_ips: 491_520,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "_spf.google.com",
        used_by: 1_418_705,
        allowed_ips: 328_960,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "websitewelcome.com",
        used_by: 414_695,
        allowed_ips: 1_088_784,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "secureserver.net",
        used_by: 374_986,
        allowed_ips: 505_104,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "relay.mailchannels.net",
        used_by: 289_112,
        allowed_ips: 4_358,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "servers.mcsv.net",
        used_by: 263_343,
        allowed_ips: 22_528,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "spf.mandrillapp.com",
        used_by: 236_293,
        allowed_ips: 4_608,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "sendgrid.net",
        used_by: 215_497,
        allowed_ips: 220_672,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "_spf.mailspamprotection.com",
        used_by: 212_418,
        allowed_ips: 1_049,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "spf.efwd.registrar-servers.com",
        used_by: 196_465,
        allowed_ips: 264,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "amazonses.com",
        used_by: 183_184,
        allowed_ips: 64_512,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "mx.ovh.com",
        used_by: 176_191,
        allowed_ips: 2,
        uses_ptr: true,
    },
    ProviderSpec {
        name: "mailgun.org",
        used_by: 172_499,
        allowed_ips: 36_312,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "_spf.mail.hostinger.com",
        used_by: 139_423,
        allowed_ips: 4_358,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "zoho.com",
        used_by: 138_227,
        allowed_ips: 6_209,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "mail.zendesk.com",
        used_by: 114_026,
        allowed_ips: 26_112,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "spf.mailjet.com",
        used_by: 111_760,
        allowed_ips: 5_120,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "spf.web-hosting.com",
        used_by: 111_405,
        allowed_ips: 10_492,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "spf.sendinblue.com",
        used_by: 102_004,
        allowed_ips: 87_040,
        uses_ptr: false,
    },
    ProviderSpec {
        name: "spf.sender.xserver.jp",
        used_by: 92_411,
        allowed_ips: 15,
        uses_ptr: false,
    },
];

/// The paper's count of includes whose own evaluation exceeds the
/// 10-lookup limit (Figure 4: 2,408 such includes).
const FAT_INCLUDE_COUNT_FULL: u64 = 2_408;

/// Table 3's include column: (prefix, number of include records carrying a
/// network of that size).
const TABLE3_INCLUDE_COLUMN: [(u8, u64); 17] = [
    (0, 0),
    (1, 2),
    (2, 10),
    (3, 7),
    (4, 3),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 110),
    (9, 3),
    (10, 27),
    (11, 50),
    (12, 137),
    (13, 210),
    (14, 5_419),
    (15, 5_389),
    (16, 14_243),
];

/// A catalog entry ready for weighted selection.
#[derive(Debug, Clone)]
pub struct ProviderEntry {
    /// The include target.
    pub domain: DomainName,
    /// Selection weight (full-scale used_by).
    pub weight: u64,
    /// Allowed IPv4 addresses of the include's subtree.
    pub allowed_ips: u64,
}

/// The published provider world.
pub struct ProviderWorld {
    /// Table 4 providers in row order.
    pub catalog: Vec<ProviderEntry>,
    /// Indices into `catalog` of providers authorizing ≤100k addresses.
    pub small: Vec<usize>,
    /// Lookup-heavy includes; `fat[0]` is the bluehost-style record with
    /// exactly 14 DNS lookups that 79.6 % of affected domains used.
    pub fat: Vec<DomainName>,
    /// The cafe24-style include target publishing two SPF records.
    pub multi_record: DomainName,
    /// Long-tail include targets per Table 3 include-column class
    /// (prefix, target) — each carries exactly one network of that size.
    pub longtail: Vec<(u8, DomainName)>,
}

/// Publish all provider zones and return the world description.
pub fn build_providers(store: &Arc<ZoneStore>, scale: Scale) -> ProviderWorld {
    // Providers draw from 16.0.0.0/4 — disjoint from everything else the
    // generator allocates, so per-domain unions stay exact.
    let mut alloc = AddressAllocator::new(Ipv4Addr::new(16, 0, 0, 0), 4);
    let mut catalog = Vec::with_capacity(TABLE4.len());
    let mut small = Vec::new();
    for (i, spec) in TABLE4.iter().enumerate() {
        let domain = DomainName::parse(spec.name).expect("static name valid");
        let mut terms: Vec<String> = Vec::new();
        if spec.uses_ptr {
            terms.push("ptr".to_string());
        }
        for block in alloc.alloc_mail_style(spec.allowed_ips) {
            terms.push(format!("ip4:{block}"));
        }
        let record = format!("v=spf1 {} -all", terms.join(" "));
        store.add_txt(&domain, &record);
        if spec.allowed_ips <= 100_000 {
            small.push(i);
        }
        catalog.push(ProviderEntry {
            domain,
            weight: spec.used_by,
            allowed_ips: spec.allowed_ips,
        });
    }

    // Fat includes: each needs >10 lookups on its own. fat[0] mirrors the
    // bluehost recommendation (14 lookups = the include itself + 13 nested).
    let fat_count = scale.of_min1(FAT_INCLUDE_COUNT_FULL) as usize;
    let mut fat = Vec::with_capacity(fat_count);
    for i in 0..fat_count {
        let nested = if i == 0 { 13 } else { 10 + (i % 6) }; // 10..15 nested
        let name = DomainName::parse(&format!("spf.fathost{i}.example")).unwrap();
        let mut terms = Vec::with_capacity(nested);
        for j in 0..nested {
            let child = DomainName::parse(&format!("n{j}.spf.fathost{i}.example")).unwrap();
            // 100.64.0.0/10 region, one host per (i, j); deterministic.
            let host = Ipv4Addr::from(0x6440_0000u32 + (i as u32) * 64 + j as u32);
            store.add_txt(&child, &format!("v=spf1 ip4:{host} -all"));
            terms.push(format!("include:{child}"));
        }
        store.add_txt(&name, &format!("v=spf1 {} -all", terms.join(" ")));
        fat.push(name);
    }

    // cafe24-style target: two SPF records ⇒ every customer gets a
    // record-not-found (multiple records) error.
    let multi_record = DomainName::parse("cafe24.com").unwrap();
    store.add_txt(&multi_record, "v=spf1 ip4:203.0.113.20 -all");
    store.add_txt(&multi_record, "v=spf1 ip4:203.0.113.21 ~all");

    // Long tail: one include target per Table 3 include-column entry.
    // Huge networks (/1../7) cannot all be disjoint — that is fine because
    // each long-tail include is used by a single customer, so no union ever
    // spans two of them. Block addresses cycle deterministically.
    let mut longtail = Vec::new();
    let include_counts: Vec<u64> = TABLE3_INCLUDE_COLUMN.iter().map(|(_, c)| *c).collect();
    let scaled_counts = scale.apportion(&include_counts);
    for ((prefix, _), count) in TABLE3_INCLUDE_COLUMN.iter().zip(scaled_counts) {
        // Keep rare classes present at any scale.
        let count = if *TABLE3_INCLUDE_COLUMN
            .iter()
            .find(|(p, _)| p == prefix)
            .map(|(_, c)| c)
            .unwrap()
            > 0
        {
            count.max(1)
        } else {
            count
        };
        for i in 0..count {
            let name = DomainName::parse(&format!("spf.tail-p{prefix}-{i}.example")).unwrap();
            let size = 1u64 << (32 - *prefix as u32);
            let base = Ipv4Addr::from(((i * size) % (1u64 << 32)) as u32);
            let block = Ipv4Cidr::new(base, *prefix).unwrap();
            store.add_txt(&name, &format!("v=spf1 ip4:{block} -all"));
            longtail.push((*prefix, name));
        }
    }

    ProviderWorld {
        catalog,
        small,
        fat,
        multi_record,
        longtail,
    }
}

impl ProviderWorld {
    /// Weighted pick over the full Table 4 catalog.
    pub fn pick_weighted(&self, roll: u64) -> &ProviderEntry {
        let total: u64 = self.catalog.iter().map(|e| e.weight).sum();
        let mut target = roll % total;
        for entry in &self.catalog {
            if target < entry.weight {
                return entry;
            }
            target -= entry.weight;
        }
        self.catalog.last().expect("catalog non-empty")
    }

    /// Weighted pick restricted to small (≤100k IPs) providers.
    pub fn pick_small(&self, roll: u64) -> &ProviderEntry {
        let total: u64 = self.small.iter().map(|&i| self.catalog[i].weight).sum();
        let mut target = roll % total;
        for &i in &self.small {
            let entry = &self.catalog[i];
            if target < entry.weight {
                return entry;
            }
            target -= entry.weight;
        }
        &self.catalog[*self.small.last().expect("small non-empty")]
    }

    /// Weighted pick restricted to large (>100k IPs) providers — the five
    /// Table 4 rows whose inclusion makes a domain "lax".
    pub fn pick_big(&self, roll: u64) -> &ProviderEntry {
        let big: Vec<&ProviderEntry> = self
            .catalog
            .iter()
            .filter(|e| e.allowed_ips > 100_000)
            .collect();
        let total: u64 = big.iter().map(|e| e.weight).sum();
        let mut target = roll % total;
        for entry in &big {
            if target < entry.weight {
                return entry;
            }
            target -= entry.weight;
        }
        big.last().expect("big providers exist")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_analyzer::Walker;
    use spf_dns::ZoneResolver;

    fn world(scale: Scale) -> (Arc<ZoneStore>, ProviderWorld) {
        let store = Arc::new(ZoneStore::new());
        let world = build_providers(&store, scale);
        (store, world)
    }

    #[test]
    fn provider_allowed_ips_match_table4_exactly() {
        let (store, w) = world(Scale { denominator: 100 });
        let walker = Walker::new(ZoneResolver::new(store));
        for (entry, spec) in w.catalog.iter().zip(TABLE4.iter()) {
            let analysis = walker.analyze(&entry.domain);
            assert_eq!(
                analysis.allowed_ip_count(),
                spec.allowed_ips,
                "{} must authorize exactly {} addresses",
                spec.name,
                spec.allowed_ips
            );
            assert!(
                analysis.errors.is_empty(),
                "{}: {:?}",
                spec.name,
                analysis.errors
            );
        }
    }

    #[test]
    fn ovh_uses_ptr() {
        let (store, w) = world(Scale { denominator: 100 });
        let walker = Walker::new(ZoneResolver::new(store));
        let ovh = w
            .catalog
            .iter()
            .find(|e| e.domain.as_str() == "mx.ovh.com")
            .unwrap();
        let analysis = walker.analyze(&ovh.domain);
        assert!(analysis.uses_ptr);
        assert_eq!(analysis.allowed_ip_count(), 2);
    }

    #[test]
    fn bluehost_style_fat_include_needs_14_lookups() {
        let (store, w) = world(Scale { denominator: 100 });
        let walker = Walker::new(ZoneResolver::new(store));
        let analysis = walker.analyze(&w.fat[0]);
        // 13 nested includes; +1 when a customer references the record.
        assert_eq!(analysis.subtree_lookups, 13);
        // Every fat include exceeds the limit once referenced.
        for f in &w.fat {
            let a = walker.analyze(f);
            assert!(
                1 + a.subtree_lookups > 10,
                "{f} has only {}",
                a.subtree_lookups
            );
        }
    }

    #[test]
    fn fat_include_count_scales() {
        let (_, w100) = world(Scale { denominator: 100 });
        assert_eq!(w100.fat.len(), 24); // round(2408/100)
        let (_, w1000) = world(Scale { denominator: 1000 });
        assert_eq!(w1000.fat.len(), 2);
    }

    #[test]
    fn multi_record_target_has_two_records() {
        let (store, w) = world(Scale { denominator: 100 });
        assert_eq!(store.txt_strings(&w.multi_record).len(), 2);
    }

    #[test]
    fn longtail_covers_table3_classes() {
        let (store, w) = world(Scale { denominator: 100 });
        let walker = Walker::new(ZoneResolver::new(store));
        // Every non-zero Table 3 include class must be represented.
        for (prefix, count) in TABLE3_INCLUDE_COLUMN {
            let have = w.longtail.iter().filter(|(p, _)| *p == prefix).count();
            if count > 0 {
                assert!(have >= 1, "missing /{prefix} long-tail includes");
            } else {
                assert_eq!(have, 0);
            }
        }
        // Spot-check one /8 target authorizes 2^24 addresses.
        let (_, t) = w.longtail.iter().find(|(p, _)| *p == 8).unwrap();
        assert_eq!(walker.analyze(t).allowed_ip_count(), 1 << 24);
    }

    #[test]
    fn weighted_pick_prefers_heavy_providers() {
        let (_, w) = world(Scale { denominator: 100 });
        let mut outlook = 0;
        for roll in 0..10_000u64 {
            // Spread rolls uniformly across the weight space.
            let total: u64 = w.catalog.iter().map(|e| e.weight).sum();
            let pick = w.pick_weighted(roll * (total / 10_000));
            if pick.domain.as_str() == "spf.protection.outlook.com" {
                outlook += 1;
            }
        }
        // outlook holds ~33 % of the total weight.
        assert!(
            (2_800..=3_800).contains(&outlook),
            "outlook picks: {outlook}"
        );
    }

    #[test]
    fn small_picks_never_exceed_100k() {
        let (_, w) = world(Scale { denominator: 100 });
        for roll in (0..50_000u64).step_by(997) {
            assert!(w.pick_small(roll).allowed_ips <= 100_000);
        }
    }
}
