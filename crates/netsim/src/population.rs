//! The synthetic Internet: a ranked, Tranco-like population of domains
//! whose SPF/DMARC/MX configuration reproduces every marginal the paper
//! measures.
//!
//! Each domain belongs to exactly one **cohort**; the full-scale cohort
//! sizes below are derived from the paper's published counts (Figures 1–6,
//! Tables 1–4, Sections 5–6), so that re-measuring the generated population
//! through the real crawl→parse→analyze pipeline reproduces the paper's
//! numbers at any scale. The derivation is documented inline; the grand
//! total is asserted to equal the paper's 12,823,598 scanned domains.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use spf_dns::ZoneStore;
use spf_types::{DomainName, Ipv4Cidr};

use crate::providers::{build_providers, ProviderWorld};
use crate::scale::Scale;

/// The paper's scan size.
pub(crate) const TOTAL_DOMAINS_FULL: u64 = 12_823_598;
/// The ranked "top 1 million" segment.
const TOP_SEGMENT_FULL: u64 = 1_000_000;
/// SPF domains inside the top segment (60.2 % of 1M, Table 1).
const TOP_SPF_FULL: u64 = 602_000;
/// DMARC domains overall (13.6 %) and in the top segment (22.6 %).
const WITH_DMARC_FULL: u64 = 1_744_009;
/// DMARC domains inside the top segment.
const TOP_DMARC_FULL: u64 = 226_000;
/// Domains still publishing the deprecated type-99 SPF RR (§5.5).
const DEPRECATED_RR_FULL: u64 = 107_646;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct PopulationConfig {
    /// Scale factor (1:100 by default → ≈128k domains).
    pub scale: Scale,
    /// RNG seed; the population is a pure function of (scale, seed).
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            scale: Scale::default(),
            seed: 0x5bf1_2023,
        }
    }
}

/// The generated world.
pub struct Population {
    /// All zone data (SPF/DMARC/MX/A records, faults).
    pub store: Arc<ZoneStore>,
    /// Scanned domains in rank order (index 0 = rank 1).
    pub domains: Vec<DomainName>,
    /// Length of the "top 1M" segment at this scale.
    pub top_len: usize,
    /// The provider world (Table 4 catalog, fat includes, long tail).
    pub providers: ProviderWorld,
    /// Scaled cohort counts, for calibration checks and EXPERIMENTS.md.
    pub manifest: BTreeMap<String, u64>,
}

/// The cohorts. Counts in [`cohort_table`] are FULL-SCALE and sum to
/// `TOTAL_DOMAINS_FULL`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cohort {
    /// MX but no SPF.
    NoSpfMx,
    /// Neither MX nor SPF (the name does not even resolve).
    NoSpfNoMx,
    /// Root TXT lookup times out (the paper's 1,179 excluded DNS errors).
    DnsTransient,
    /// §5.1: no MX, record is exactly `-all`/`~all`.
    DenyAllNoMx,
    /// §5.1: no MX but a real sending policy — likely misconfigured.
    MiscSpfNoMx,
    /// Clean, tight, direct-only record (`mx` + a couple of `ip4` hosts).
    DirectClean,
    /// Over 100k addresses via several /17 blocks — direct-lax domains beyond
    /// Table 3's /0../16 classes (§6.2's 9,994 minus the ≤/15 rows).
    DirectLaxMulti,
    /// §5.5: record without a restrictive `all` (427,767).
    PermissiveAll,
    /// §5.5: record built on the deprecated `ptr` mechanism (233,167).
    PtrOnly,
    /// §5.5: the 14 RFC 6652 `ra`/`rp`/`rr` users (fixed count).
    ReportingMod,
    /// §5.5: the single XSS-in-SPF record (fixed count).
    Xss,
    /// Figure 2 error cohorts.
    ErrSyntax,
    /// Invalid IP argument (Figure 2).
    ErrInvalidIp,
    /// Lookup-limit violation via a fat include (Figures 2 and 4).
    ErrTooManyLookups,
    /// Void-lookup-limit violation (Figure 2).
    ErrVoid,
    /// Include loop (Figure 2; 71.6 % direct self-inclusion).
    ErrIncludeLoop,
    /// Redirect loop (Figure 2, 58 domains).
    ErrRedirectLoop,
    /// Figure 3 record-not-found causes.
    ErrNotFoundNoSpf,
    /// Include target with multiple SPF records (75.6 % via cafe24).
    ErrNotFoundMultiple,
    /// Include target NXDOMAIN.
    ErrNotFoundNx,
    /// Include target with an empty DNS answer.
    ErrNotFoundEmpty,
    /// Include target timing out.
    ErrNotFoundTimeout,
    /// Oversized-label/name include targets (3 domains, fixed).
    ErrNotFoundOther,
    /// Table 3 direct column: one `ip4:<block>/p` range. The payload is
    /// the prefix; 255 encodes the "specific host with /0" misread.
    DirectLarge(u8),
    /// One user of each long-tail include (Table 3 include column).
    LongtailUser,
    /// Clean record with `k` provider includes (Figure 6). 11 = ">10".
    IncludeClean(u8),
}

/// Count rounding behaviour per cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rounding {
    /// Largest-remainder share of the population.
    Scaled,
    /// Scaled but never rounded to zero.
    ScaledMin1,
    /// Absolute count at any scale (rare curiosities like the XSS record).
    Fixed,
}

/// The calibrated full-scale cohort table. See the module docs; the
/// arithmetic is asserted in `tests::full_scale_table_sums_to_paper_total`.
fn cohort_table() -> Vec<(Cohort, u64, Rounding)> {
    use Cohort::*;
    use Rounding::*;
    let mut t = vec![
        (NoSpfMx, 2_277_347, Scaled),
        (NoSpfNoMx, 3_293_336, Scaled),
        (DnsTransient, 1_179, ScaledMin1),
        (DenyAllNoMx, 203_341, Scaled),
        (MiscSpfNoMx, 178_921, Scaled),
        (DirectClean, 1_279_154, Scaled),
        (DirectLaxMulti, 4_603, ScaledMin1),
        (PermissiveAll, 427_767, Scaled),
        (PtrOnly, 233_167, Scaled),
        (ReportingMod, 14, Fixed),
        (Xss, 1, Fixed),
        (ErrSyntax, 38_296, Scaled),
        (ErrInvalidIp, 7_882, ScaledMin1),
        (ErrTooManyLookups, 49_421, Scaled),
        (ErrVoid, 5_308, ScaledMin1),
        (ErrIncludeLoop, 19_356, Scaled),
        (ErrRedirectLoop, 58, ScaledMin1),
        (ErrNotFoundNoSpf, 48_824, Scaled),
        (ErrNotFoundMultiple, 2_263, ScaledMin1),
        (ErrNotFoundNx, 36_743, Scaled),
        (ErrNotFoundEmpty, 173, ScaledMin1),
        (ErrNotFoundTimeout, 2_691, ScaledMin1),
        (ErrNotFoundOther, 3, Fixed),
    ];
    // Table 3 direct column. 255 encodes the 15 "specific host with /0"
    // entries the paper distinguishes from deliberate 0.0.0.0/0.
    let direct_large: [(u8, u64); 18] = [
        (0, 39),
        (255, 15),
        (1, 29),
        (2, 47),
        (3, 16),
        (4, 7),
        (5, 6),
        (6, 4),
        (7, 4),
        (8, 2_162),
        (9, 23),
        (10, 131),
        (11, 44),
        (12, 313),
        (13, 228),
        (14, 1_178),
        (15, 1_145),
        (16, 11_126),
    ];
    for (p, count) in direct_large {
        t.push((DirectLarge(p), count, ScaledMin1));
    }
    // Long-tail include users: one per long-tail include; the include
    // count is itself scaled, so the full-scale figure here is the Table 3
    // include-column sum.
    t.push((LongtailUser, 25_600, Scaled));
    // Figure 6 histogram, minus the cohorts that already carry includes:
    // k=1 minus (too-many-lookups 49,421 + include loops 19,356 +
    // record-not-found 90,697 + long-tail users 25,600).
    let include_clean: [(u8, u64); 11] = [
        (1, 3_413_790),
        (2, 765_073),
        (3, 286_108),
        (4, 118_405),
        (5, 53_526),
        (6, 22_618),
        (7, 8_240),
        (8, 2_744),
        (9, 784),
        (10, 195),
        (11, 150), // ">10"
    ];
    for (k, count) in include_clean {
        t.push((
            IncludeClean(k),
            count,
            if count < 500 { ScaledMin1 } else { Scaled },
        ));
    }
    t
}

fn is_spf_cohort(c: Cohort) -> bool {
    !matches!(
        c,
        Cohort::NoSpfMx | Cohort::NoSpfNoMx | Cohort::DnsTransient
    )
}

fn has_mx(c: Cohort) -> bool {
    !matches!(
        c,
        Cohort::NoSpfNoMx | Cohort::DenyAllNoMx | Cohort::MiscSpfNoMx | Cohort::DnsTransient
    )
}

impl Population {
    /// Build the world for `config`.
    pub fn build(config: PopulationConfig) -> Population {
        Builder::new(config).run()
    }
}

struct Builder {
    config: PopulationConfig,
    store: Arc<ZoneStore>,
    rng: StdRng,
    providers: ProviderWorld,
    mx_pool: Vec<DomainName>,
    manifest: BTreeMap<String, u64>,
    // Overlay budgets, consumed while building.
    dmarc_budget: u64,
    deprecated_rr_budget: u64,
    // Single-include domains that must become lax: §6.3's 2,507,097 lax
    // include users minus the (always-lax) multi-include cohorts and the
    // lax long-tail users. Full-scale: 2,507,097 − 1,257,843 − 132.
    lax_k1_budget: u64,
    // §4.1: "Only 0.5 % of the domains use IPv6 directly" — overlay an
    // ip6 term on that share of clean records. Full-scale: 36,259.
    ip6_budget: u64,
    // Shared error-target pools.
    nospf_targets: Vec<DomainName>,
    multi_targets: Vec<DomainName>,
    empty_targets: Vec<DomainName>,
    slow_targets: Vec<DomainName>,
}

impl Builder {
    fn new(config: PopulationConfig) -> Builder {
        let store = Arc::new(ZoneStore::new());
        let providers = build_providers(&store, config.scale);
        Builder {
            config,
            store,
            rng: StdRng::seed_from_u64(config.seed),
            providers,
            mx_pool: Vec::new(),
            manifest: BTreeMap::new(),
            dmarc_budget: 0,
            deprecated_rr_budget: 0,
            lax_k1_budget: 0,
            ip6_budget: 0,
            nospf_targets: Vec::new(),
            multi_targets: Vec::new(),
            empty_targets: Vec::new(),
            slow_targets: Vec::new(),
        }
    }

    fn run(mut self) -> Population {
        let scale = self.config.scale;
        self.build_shared_infrastructure();

        // Scaled cohort counts.
        let table = cohort_table();
        let weights: Vec<u64> = table.iter().map(|(_, c, _)| *c).collect();
        let mut scaled = scale.apportion(&weights);
        let mut largest = 0usize;
        for (i, ((_, _, rounding), count)) in table.iter().zip(scaled.iter_mut()).enumerate() {
            match rounding {
                Rounding::Scaled => {}
                Rounding::ScaledMin1 => {
                    if *count == 0 {
                        *count = 1;
                    }
                }
                Rounding::Fixed => *count = weights[i],
            }
        }
        // Keep the grand total exact by adjusting the largest cohort.
        let target_total = scale.of(TOTAL_DOMAINS_FULL);
        for (i, c) in scaled.iter().enumerate() {
            if *c > scaled[largest] {
                largest = i;
            }
        }
        let current: u64 = scaled.iter().sum();
        scaled[largest] = scaled[largest] + target_total
            - current.min(target_total)
            - current.saturating_sub(target_total).min(scaled[largest]);
        // (equivalent to += target-current with saturation; recompute cleanly)
        let current: u64 = scaled.iter().sum();
        if current != target_total {
            let diff = target_total as i64 - current as i64;
            scaled[largest] = (scaled[largest] as i64 + diff).max(0) as u64;
        }

        // Long-tail user count must match the scaled include count.
        let longtail_users = self.providers.longtail.len() as u64;
        let lt_idx = table
            .iter()
            .position(|(c, _, _)| *c == Cohort::LongtailUser)
            .unwrap();
        let k1_idx = table
            .iter()
            .position(|(c, _, _)| *c == Cohort::IncludeClean(1))
            .unwrap();
        let delta = scaled[lt_idx] as i64 - longtail_users as i64;
        scaled[lt_idx] = longtail_users;
        scaled[k1_idx] = (scaled[k1_idx] as i64 + delta).max(0) as u64;

        // Overlay budgets.
        self.dmarc_budget = scale.of(WITH_DMARC_FULL);
        self.deprecated_rr_budget = scale.of(DEPRECATED_RR_FULL);
        self.lax_k1_budget = scale.of(1_249_122);
        self.ip6_budget = scale.of(36_259);
        let top_dmarc = scale.of(TOP_DMARC_FULL);

        // Split each cohort between the top segment and the tail so the
        // top-1M adoption rates come out right.
        let top_total = scale.of(TOP_SEGMENT_FULL);
        let top_spf = scale.of(TOP_SPF_FULL);
        let spf_weights: Vec<u64> = table
            .iter()
            .zip(&scaled)
            .map(|((c, _, _), n)| if is_spf_cohort(*c) { *n } else { 0 })
            .collect();
        let nonspf_weights: Vec<u64> = table
            .iter()
            .zip(&scaled)
            .map(|((c, _, _), n)| if is_spf_cohort(*c) { 0 } else { *n })
            .collect();
        let top_spf_counts = crate::scale::apportion(top_spf, &spf_weights);
        let top_nonspf_counts = crate::scale::apportion(top_total - top_spf, &nonspf_weights);

        // Lay out cohort tags per segment and shuffle deterministically.
        let mut top_tags: Vec<Cohort> = Vec::with_capacity(top_total as usize);
        let mut tail_tags: Vec<Cohort> = Vec::new();
        for (i, (cohort, _, _)) in table.iter().enumerate() {
            let top_n = (top_spf_counts[i] + top_nonspf_counts[i]).min(scaled[i]);
            let tail_n = scaled[i] - top_n;
            top_tags.extend(std::iter::repeat_n(*cohort, top_n as usize));
            tail_tags.extend(std::iter::repeat_n(*cohort, tail_n as usize));
        }
        top_tags.shuffle(&mut self.rng);
        tail_tags.shuffle(&mut self.rng);
        let top_len = top_tags.len();

        // Record the manifest before building.
        for (i, (cohort, _, _)) in table.iter().enumerate() {
            *self.manifest.entry(format!("{cohort:?}")).or_default() += scaled[i];
        }
        self.manifest.insert("total".into(), scaled.iter().sum());
        self.manifest.insert("top_len".into(), top_len as u64);

        // Build every domain. DMARC is assigned segment by segment.
        let mut domains = Vec::with_capacity(top_len + tail_tags.len());
        let mut dmarc_remaining = top_dmarc.min(self.dmarc_budget);
        let mut rank = 1u64;
        let mut longtail_cursor = 0usize;
        for tag in &top_tags {
            let d = self.build_domain(rank, *tag, &mut dmarc_remaining, &mut longtail_cursor);
            domains.push(d);
            rank += 1;
        }
        let mut dmarc_remaining =
            self.dmarc_budget - (top_dmarc.min(self.dmarc_budget) - dmarc_remaining);
        for tag in &tail_tags {
            let d = self.build_domain(rank, *tag, &mut dmarc_remaining, &mut longtail_cursor);
            domains.push(d);
            rank += 1;
        }

        Population {
            store: self.store,
            domains,
            top_len,
            providers: self.providers,
            manifest: self.manifest,
        }
    }

    fn build_shared_infrastructure(&mut self) {
        // Shared MX host pool: 64 mail hosts in 198.18.0.0/24 (benchmark
        // range, disjoint from provider space).
        for j in 0..64u32 {
            let host = DomainName::parse(&format!("mx{j}.mailcore.example")).unwrap();
            self.store.add_a(&host, Ipv4Addr::from(0xC612_0000u32 + j));
            self.mx_pool.push(host);
        }
        // Shared error-target pools.
        let scale = self.config.scale;
        let pool = |full: u64| (scale.of(full) / 50).max(1);
        for i in 0..pool(48_824) {
            let t = DomainName::parse(&format!("nospf{i}.targets.example")).unwrap();
            self.store.add_txt(&t, "just-a-verification-string");
            self.nospf_targets.push(t);
        }
        for i in 0..pool(2_263) {
            let t = DomainName::parse(&format!("multi{i}.targets.example")).unwrap();
            self.store.add_txt(&t, "v=spf1 ip4:203.0.113.40 -all");
            self.store.add_txt(&t, "v=spf1 ip4:203.0.113.41 -all");
            self.multi_targets.push(t);
        }
        for i in 0..pool(173) {
            let t = DomainName::parse(&format!("empty{i}.targets.example")).unwrap();
            self.store.add_empty_name(&t);
            self.empty_targets.push(t);
        }
        for i in 0..pool(2_691) {
            let t = DomainName::parse(&format!("slow{i}.targets.example")).unwrap();
            self.store.add_txt(&t, "v=spf1 -all");
            self.store.set_fault(&t, spf_dns::ZoneFault::Timeout);
            self.slow_targets.push(t);
        }
    }

    /// A deterministic host address for (rank, slot) in 100.128.0.0/9.
    fn host_ip(&self, rank: u64, slot: u64) -> Ipv4Addr {
        let region = 0x6480_0000u64; // 100.128.0.0
        let size = 1u64 << 23; // /9
        Ipv4Addr::from((region + (rank * 8 + slot) % size) as u32)
    }

    fn tld_for(&self, rank: u64) -> &'static str {
        const TLDS: [&str; 8] = ["com", "net", "org", "de", "io", "fr", "nl", "info"];
        TLDS[(rank % TLDS.len() as u64) as usize]
    }

    fn domain_name(&self, rank: u64, tld: &str) -> DomainName {
        DomainName::parse(&format!("site{rank}.{tld}")).expect("generated name valid")
    }

    fn add_mx(&self, rank: u64, domain: &DomainName) {
        let host = &self.mx_pool[(rank % self.mx_pool.len() as u64) as usize];
        self.store.add_mx(domain, 10, host);
    }

    fn maybe_dmarc(&mut self, domain: &DomainName, dmarc_remaining: &mut u64) {
        if *dmarc_remaining == 0 {
            return;
        }
        *dmarc_remaining -= 1;
        let policy = match self.rng.random_range(0..100u32) {
            0..=54 => "none",
            55..=74 => "quarantine",
            _ => "reject",
        };
        let name = domain.prepend_label("_dmarc").expect("short label");
        self.store.add_txt(&name, &format!("v=DMARC1; p={policy}"));
        // The MTA-STS layer rides the domain hash, not the rng stream,
        // so adding it leaves every pre-existing population byte
        // untouched (crate::deployment has the stride arithmetic).
        crate::deployment::assign_mta_sts(&self.store, domain, policy != "none");
    }

    fn maybe_deprecated_rr(&mut self, domain: &DomainName, record: &str) {
        if self.deprecated_rr_budget == 0 {
            return;
        }
        self.deprecated_rr_budget -= 1;
        self.store.add_spf_type99(domain, record);
    }

    fn build_domain(
        &mut self,
        rank: u64,
        cohort: Cohort,
        dmarc_remaining: &mut u64,
        longtail_cursor: &mut usize,
    ) -> DomainName {
        use Cohort::*;
        let tld = match cohort {
            // The paper: /8-ish long-tail includes cluster in ".top".
            LongtailUser => "top",
            _ => self.tld_for(rank),
        };
        let domain = self.domain_name(rank, tld);
        if has_mx(cohort) {
            self.add_mx(rank, &domain);
        }

        let mut record: Option<String> = None;
        match cohort {
            NoSpfMx => {}
            NoSpfNoMx => {}
            DnsTransient => {
                self.store.add_txt(&domain, "v=spf1 -all");
                self.store.set_fault(&domain, spf_dns::ZoneFault::Timeout);
            }
            DenyAllNoMx => {
                // 202,198 "-all" vs 1,143 "~all" (§5.1).
                let soft = self.rng.random_range(0..203_341u32) < 1_143;
                record = Some(if soft {
                    "v=spf1 ~all".into()
                } else {
                    "v=spf1 -all".into()
                });
            }
            MiscSpfNoMx => {
                record = Some(format!("v=spf1 ip4:{} -all", self.host_ip(rank, 0)));
            }
            DirectClean => {
                let mut terms = vec!["mx".to_string()];
                if self.ip6_budget > 0 {
                    self.ip6_budget -= 1;
                    terms.push(format!("ip6:2001:db8:{:x}::/48", rank % 0xffff));
                }
                // ~30 % of self-hosted setups authorize a small office
                // network rather than single hosts — these sit between the
                // "<20 IPs" third and the lax tail of Figure 5.
                if self.rng.random_range(0..100u32) < 30 {
                    let size = 1u64 << 6;
                    let region = 0x6A00_0000u64; // 106.0.0.0/8
                    let idx = (rank * size) % (1u64 << 24);
                    let base = Ipv4Addr::from((region + idx) as u32);
                    terms.push(format!("ip4:{}", Ipv4Cidr::new(base, 26).unwrap()));
                } else {
                    let extra = self.rng.random_range(1..=3u64);
                    for s in 0..extra {
                        terms.push(format!("ip4:{}", self.host_ip(rank, s)));
                    }
                }
                record = Some(format!("v=spf1 {} -all", terms.join(" ")));
            }
            DirectLaxMulti => {
                // Four /17 blocks = 131,072 addresses, prefixes outside
                // Table 3's /0../16 classes.
                let size = 1u64 << 15;
                let region = 0x6800_0000u64; // 104.0.0.0/8
                let blocks: Vec<String> = (0..4u64)
                    .map(|j| {
                        let idx = (rank * 4 + j) % (1u64 << 9);
                        let base = Ipv4Addr::from((region + idx * size) as u32);
                        format!("ip4:{}", Ipv4Cidr::new(base, 17).unwrap())
                    })
                    .collect();
                record = Some(format!("v=spf1 {} -all", blocks.join(" ")));
            }
            PermissiveAll => {
                let variant = self.rng.random_range(0..5u32);
                record = Some(if variant < 4 {
                    format!("v=spf1 ip4:{}", self.host_ip(rank, 0))
                } else {
                    "v=spf1 mx ?all".to_string()
                });
            }
            PtrOnly => {
                record = Some("v=spf1 ptr -all".into());
            }
            ReportingMod => {
                record = Some(format!(
                    "v=spf1 ip4:{} ra=postmaster rp=100 rr=all -all",
                    self.host_ip(rank, 0)
                ));
            }
            Xss => {
                record = Some("v=spf1 xss=<script>alert('SPF')</script> ~all".into());
            }
            ErrSyntax => {
                record = Some(self.syntax_error_record(rank));
            }
            ErrInvalidIp => {
                let bad = match rank % 4 {
                    0 => "ip4:1.2.3".to_string(),
                    1 => "ip4:mail.example.com".to_string(),
                    2 => "ip4:2001:db8::1".to_string(),
                    _ => "ip4:300.1.2.3".to_string(),
                };
                record = Some(format!("v=spf1 {bad} ip4:{} -all", self.host_ip(rank, 0)));
            }
            ErrTooManyLookups => {
                // 79.6 % of affected domains used the bluehost-style record.
                let fat =
                    if self.rng.random_range(0..1000u32) < 796 || self.providers.fat.len() == 1 {
                        &self.providers.fat[0]
                    } else {
                        let i = 1 + (rank as usize) % (self.providers.fat.len() - 1);
                        &self.providers.fat[i]
                    };
                record = Some(format!("v=spf1 include:{fat} -all"));
            }
            ErrVoid => {
                record = Some(format!(
                    "v=spf1 a:v1.{domain} a:v2.{domain} a:v3.{domain} -all"
                ));
            }
            ErrIncludeLoop => {
                // 71.6 % direct self-inclusion (§5.3).
                if self.rng.random_range(0..1000u32) < 716 {
                    record = Some(format!("v=spf1 include:{domain} -all"));
                } else {
                    let mid = DomainName::parse(&format!("loopmid{rank}.example")).unwrap();
                    self.store
                        .add_txt(&mid, &format!("v=spf1 include:{domain} -all"));
                    record = Some(format!("v=spf1 include:{mid} -all"));
                }
            }
            ErrRedirectLoop => {
                record = Some(format!("v=spf1 redirect={domain}"));
            }
            ErrNotFoundNoSpf => {
                let t = &self.nospf_targets[(rank as usize) % self.nospf_targets.len()];
                record = Some(format!(
                    "v=spf1 ip4:{} include:{t} -all",
                    self.host_ip(rank, 0)
                ));
            }
            ErrNotFoundMultiple => {
                // 75.6 % via the cafe24-style hosting provider.
                let target = if self.rng.random_range(0..1000u32) < 756 {
                    self.providers.multi_record.clone()
                } else {
                    self.multi_targets[(rank as usize) % self.multi_targets.len()].clone()
                };
                record = Some(format!("v=spf1 include:{target} -all"));
            }
            ErrNotFoundNx => {
                record = Some(format!(
                    "v=spf1 include:nx-{rank}.unregistered.example -all"
                ));
            }
            ErrNotFoundEmpty => {
                let t = &self.empty_targets[(rank as usize) % self.empty_targets.len()];
                record = Some(format!("v=spf1 include:{t} -all"));
            }
            ErrNotFoundTimeout => {
                let t = &self.slow_targets[(rank as usize) % self.slow_targets.len()];
                record = Some(format!("v=spf1 include:{t} -all"));
            }
            ErrNotFoundOther => {
                // Oversized label / oversized name (the paper's 3 "other"
                // cases; its third was a UTF-8 decode failure, which cannot
                // be expressed in a &str zone — approximated by another
                // oversized label).
                let target = match rank % 3 {
                    0 | 2 => format!("{}.example", "a".repeat(64)),
                    _ => {
                        let label = "b".repeat(60);
                        format!("{label}.{label}.{label}.{label}.{label}.example")
                    }
                };
                record = Some(format!("v=spf1 include:{target} -all"));
            }
            DirectLarge(class) => {
                let term = match class {
                    0 => "ip4:0.0.0.0/0".to_string(),
                    255 => format!("ip4:{}/0", self.host_ip(rank, 0)),
                    p => {
                        let size = 1u64 << (32 - p as u32);
                        let base = Ipv4Addr::from(((rank * size) % (1u64 << 32)) as u32);
                        format!("ip4:{}", Ipv4Cidr::new(base, p).unwrap())
                    }
                };
                record = Some(format!("v=spf1 {term} -all"));
            }
            LongtailUser => {
                let (_, target) =
                    &self.providers.longtail[*longtail_cursor % self.providers.longtail.len()];
                *longtail_cursor += 1;
                record = Some(format!("v=spf1 include:{target} -all"));
            }
            IncludeClean(k) => {
                record = Some(self.include_clean_record(rank, k));
            }
        }

        if let Some(text) = record {
            self.store.add_txt(&domain, &text);
            if is_spf_cohort(cohort) {
                self.maybe_dmarc(&domain, dmarc_remaining);
                if matches!(cohort, DirectClean | IncludeClean(_)) {
                    self.maybe_deprecated_rr(&domain, &text);
                }
            }
        }
        domain
    }

    /// §5.3's syntax-error mix, proportioned like the paper's percentages.
    fn syntax_error_record(&mut self, rank: u64) -> String {
        let host = self.host_ip(rank, 0);
        // Weights: ipv4 4,216; ipv6 289; ip 2,946; concat 2,699;
        // multiple v=spf1 5,847; whitespace 6,344; other typos 15,955.
        let roll = self.rng.random_range(0..38_296u32);
        if roll < 4_216 {
            format!("v=spf1 ipv4:{host} -all")
        } else if roll < 4_505 {
            "v=spf1 ipv6:2001:db8::44 -all".to_string()
        } else if roll < 7_451 {
            format!("v=spf1 ip:{host} -all")
        } else if roll < 10_150 {
            // Site-verification string concatenated into the record.
            format!("v=spf1 ip4:{host} -all 53Gq0RZkX9wM2c")
        } else if roll < 15_997 {
            format!("v=spf1 ip4:{host} v=spf1 mx -all")
        } else if roll < 22_341 {
            format!("v=spf1 ip4: {host} -all")
        } else {
            // The -al / -all; style dead-all typos of §5.5.
            let typo = if rank.is_multiple_of(2) {
                "-al"
            } else {
                "-all;"
            };
            format!("v=spf1 ip4:{host} {typo}")
        }
    }

    /// A clean record with `k` provider includes (k = 11 means 11–13).
    ///
    /// The pick model encodes a constraint hidden in the paper's own
    /// numbers: outlook alone is used by 2.46M domains while only 2.51M
    /// domains are lax through includes — so the users of the five big
    /// (>100k-IP) providers must overlap almost entirely. We reproduce
    /// that by stacking: every multi-include domain and a calibrated
    /// budget of single-include domains draw predominantly from the big
    /// five; all remaining domains draw from the small providers only.
    fn include_clean_record(&mut self, rank: u64, k: u8) -> String {
        let count = if k == 11 {
            11 + (rank % 3) as usize
        } else {
            k as usize
        };
        let is_lax = if count > 1 {
            true
        } else if self.lax_k1_budget > 0 {
            self.lax_k1_budget -= 1;
            true
        } else {
            false
        };
        let mut picks: Vec<DomainName> = Vec::with_capacity(count);
        let mut guard = 0;
        while picks.len() < count {
            let roll: u64 = self.rng.random();
            let entry = if is_lax {
                // First pick always big (guarantees laxness); further
                // picks stay big-weighted 85 % of the time.
                if picks.is_empty() || self.rng.random_range(0..100u32) < 85 {
                    self.providers.pick_big(roll)
                } else {
                    self.providers.pick_small(roll)
                }
            } else {
                self.providers.pick_small(roll)
            };
            guard += 1;
            if !picks.contains(&entry.domain) {
                picks.push(entry.domain.clone());
            } else if guard > 64 {
                // Distinctness exhausted the preferred pool (only 5 big
                // providers exist); fall back to the full catalog.
                let fallback = self.providers.pick_weighted(roll);
                if !picks.contains(&fallback.domain) {
                    picks.push(fallback.domain.clone());
                }
            }
        }
        let mut terms: Vec<String> = picks.iter().map(|d| format!("include:{d}")).collect();
        // Half the customers also authorize a host or two of their own.
        if self.rng.random_range(0..2u32) == 0 {
            terms.push(format!("ip4:{}", self.host_ip(rank, 1)));
        }
        let all = if self.rng.random_range(0..4u32) == 0 {
            "~all"
        } else {
            "-all"
        };
        format!("v=spf1 {} {all}", terms.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Domains with an MX record (Figure 1).
    const WITH_MX_FULL: u64 = 9_148_000;
    /// Domains with SPF — the sum of Figure 6's histogram.
    const WITH_SPF_FULL: u64 = 7_251_736;

    #[test]
    fn full_scale_table_sums_to_paper_total() {
        let total: u64 = cohort_table().iter().map(|(_, c, _)| *c).sum();
        assert_eq!(total, TOTAL_DOMAINS_FULL);
    }

    #[test]
    fn spf_cohorts_sum_to_with_spf() {
        let spf_total: u64 = cohort_table()
            .iter()
            .filter(|(c, _, _)| is_spf_cohort(*c))
            .map(|(_, c, _)| *c)
            .sum();
        assert_eq!(spf_total, WITH_SPF_FULL);
    }

    #[test]
    fn mx_cohorts_sum_to_with_mx() {
        let mx_total: u64 = cohort_table()
            .iter()
            .filter(|(c, _, _)| has_mx(*c))
            .map(|(_, c, _)| *c)
            .sum();
        // DnsTransient domains have MX in the zone but their fault hides
        // it; they are excluded from has_mx() and from this sum.
        assert_eq!(mx_total, WITH_MX_FULL - 1_179);
    }

    #[test]
    fn error_cohorts_sum_to_figure2_total() {
        use Cohort::*;
        let err_total: u64 = cohort_table()
            .iter()
            .filter(|(c, _, _)| {
                matches!(
                    c,
                    ErrSyntax
                        | ErrInvalidIp
                        | ErrTooManyLookups
                        | ErrVoid
                        | ErrIncludeLoop
                        | ErrRedirectLoop
                        | ErrNotFoundNoSpf
                        | ErrNotFoundMultiple
                        | ErrNotFoundNx
                        | ErrNotFoundEmpty
                        | ErrNotFoundTimeout
                        | ErrNotFoundOther
                )
            })
            .map(|(_, c, _)| *c)
            .sum();
        assert_eq!(err_total, 211_018);
    }

    #[test]
    fn small_population_builds_deterministically() {
        let config = PopulationConfig {
            scale: Scale { denominator: 2000 },
            seed: 7,
        };
        let a = Population::build(config);
        let b = Population::build(config);
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.manifest, b.manifest);
        assert_eq!(a.domains.len() as u64, a.manifest["total"]);
        assert_eq!(a.domains.len(), 6412); // 12,823,598 / 2000, rounded
    }

    #[test]
    fn top_segment_is_scaled_million() {
        let config = PopulationConfig {
            scale: Scale { denominator: 1000 },
            seed: 7,
        };
        let p = Population::build(config);
        assert_eq!(p.top_len, 1000);
        assert!(p.domains.len() >= p.top_len);
    }

    #[test]
    fn domains_are_unique() {
        let config = PopulationConfig {
            scale: Scale { denominator: 2000 },
            seed: 9,
        };
        let p = Population::build(config);
        let mut names: Vec<&str> = p.domains.iter().map(|d| d.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
