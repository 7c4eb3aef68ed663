//! The operator-remediation model behind Table 2.
//!
//! Two weeks after the notification the authors rescanned all erroneous
//! domains and found per-class fix rates between 1.6 % (lookup limits —
//! "non-trivial to fix") and 5.7 % (syntax errors — "easily fixed"), plus
//! 1,030 domains that disappeared entirely. The human operator is the one
//! piece of the original experiment that cannot be rebuilt in software, so
//! it is replaced by a calibrated probability model (DESIGN.md §2): each
//! notified domain fixes its record with the class-specific probability,
//! and a share of remediations is the domain vanishing from the DNS.
//! Everything else — what a "fix" looks like, and the rescan that produces
//! the after-column — runs through the real zone store and analyzer.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use spf_analyzer::{DomainReport, ErrorClass};
use spf_dns::ZoneStore;
use spf_types::DomainName;

/// Per-class remediation probabilities, from Table 2's "Change" column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixRates {
    /// Syntax errors: −5.73 %.
    pub syntax: f64,
    /// Too many DNS lookups: −1.60 %.
    pub too_many_lookups: f64,
    /// Too many void lookups: −3.41 %.
    pub too_many_void: f64,
    /// Redirect loops: −3.45 %.
    pub redirect_loop: f64,
    /// Include loops: −3.82 %.
    pub include_loop: f64,
    /// Invalid IPs: −4.87 %.
    pub invalid_ip: f64,
    /// Record-not-found: not notified, but Table 2's total implies an
    /// organic −2.91 %.
    pub record_not_found: f64,
    /// Share of remediations that are the domain disappearing
    /// (1,030 of 6,931).
    pub disappear_share: f64,
}

impl Default for FixRates {
    fn default() -> Self {
        FixRates {
            syntax: 0.0573,
            too_many_lookups: 0.0160,
            too_many_void: 0.0341,
            redirect_loop: 0.0345,
            include_loop: 0.0382,
            invalid_ip: 0.0487,
            record_not_found: 0.0291,
            disappear_share: 1_030.0 / 6_931.0,
        }
    }
}

impl FixRates {
    /// The probability for one error class.
    fn for_class(&self, class: ErrorClass) -> f64 {
        match class {
            ErrorClass::SyntaxError => self.syntax,
            ErrorClass::TooManyDnsLookups => self.too_many_lookups,
            ErrorClass::TooManyVoidDnsLookups => self.too_many_void,
            ErrorClass::RedirectLoop => self.redirect_loop,
            ErrorClass::IncludeLoop => self.include_loop,
            ErrorClass::InvalidIpAddress => self.invalid_ip,
            ErrorClass::RecordNotFound => self.record_not_found,
        }
    }
}

/// What the model did to the zone.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemediationOutcome {
    /// Domains whose record was corrected.
    pub fixed: Vec<DomainName>,
    /// Domains that disappeared from the DNS.
    pub disappeared: Vec<DomainName>,
}

impl RemediationOutcome {
    /// Total remediations (the paper's 6,931).
    pub fn total(&self) -> usize {
        self.fixed.len() + self.disappeared.len()
    }
}

/// Apply the model: mutate `store` so a rescan observes the fixes.
///
/// `reports` is the scan that fed the notification campaign; only domains
/// with a primary error are candidates. The mutation per class writes a
/// *correct* record of the same spirit (e.g. a fixed typo keeps the same
/// authorized host), so the rescan's adoption numbers stay stable while
/// its error counts drop.
pub fn apply(
    store: &Arc<ZoneStore>,
    reports: &[DomainReport],
    rates: &FixRates,
    seed: u64,
) -> RemediationOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcome = RemediationOutcome::default();
    for report in reports {
        let Some(class) = report.primary_error else {
            continue;
        };
        if rng.random::<f64>() >= rates.for_class(class) {
            continue;
        }
        let domain = &report.domain;
        if rng.random::<f64>() < rates.disappear_share {
            store.remove_name(domain);
            outcome.disappeared.push(domain.clone());
        } else {
            store.replace_txt(domain, &fixed_record(report, class));
            outcome.fixed.push(domain.clone());
        }
    }
    outcome
}

/// A corrected record for the given failure class.
fn fixed_record(report: &DomainReport, class: ErrorClass) -> String {
    // Reuse a host the broken record already mentioned when we can find
    // one, so the "fix" looks like what an operator would publish.
    let salvaged_host = report
        .record
        .as_ref()
        .and_then(|r| r.ips.sample_first())
        .map(|ip| format!("ip4:{ip}"))
        .unwrap_or_else(|| "mx".to_string());
    match class {
        ErrorClass::SyntaxError
        | ErrorClass::InvalidIpAddress
        | ErrorClass::TooManyVoidDnsLookups
        | ErrorClass::IncludeLoop
        | ErrorClass::RedirectLoop
        | ErrorClass::RecordNotFound => format!("v=spf1 {salvaged_host} -all"),
        // Lookup-limit fixes flatten the include tree into direct
        // addresses, preserving the authorized set (spf_analyzer::flatten).
        ErrorClass::TooManyDnsLookups => report
            .record
            .as_ref()
            .and_then(|analysis| spf_analyzer::flatten(analysis).ok())
            .map(|flat| flat.record)
            .unwrap_or_else(|| format!("v=spf1 {salvaged_host} -all")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_analyzer::{analyze_domain, Walker};
    use spf_dns::ZoneResolver;

    fn build_errors(n: usize) -> (Arc<ZoneStore>, Vec<DomainName>) {
        let store = Arc::new(ZoneStore::new());
        let mut domains = Vec::new();
        for i in 0..n {
            let d = DomainName::parse(&format!("err{i}.example")).unwrap();
            // Rotate classes.
            let record = match i % 3 {
                0 => "v=spf1 ipv4:10.0.0.1 -all".to_string(),
                1 => format!("v=spf1 include:err{i}.example -all"),
                _ => "v=spf1 ip4:1.2.3 -all".to_string(),
            };
            store.add_txt(&d, &record);
            domains.push(d);
        }
        (store, domains)
    }

    fn scan(store: &Arc<ZoneStore>, domains: &[DomainName]) -> Vec<DomainReport> {
        let walker = Walker::new(ZoneResolver::new(Arc::clone(store)));
        domains.iter().map(|d| analyze_domain(&walker, d)).collect()
    }

    #[test]
    fn full_rates_fix_everything() {
        let (store, domains) = build_errors(30);
        let before = scan(&store, &domains);
        assert_eq!(before.iter().filter(|r| r.has_error()).count(), 30);
        let rates = FixRates {
            syntax: 1.0,
            too_many_lookups: 1.0,
            too_many_void: 1.0,
            redirect_loop: 1.0,
            include_loop: 1.0,
            invalid_ip: 1.0,
            record_not_found: 1.0,
            disappear_share: 0.0,
        };
        let outcome = apply(&store, &before, &rates, 1);
        assert_eq!(outcome.fixed.len(), 30);
        let after = scan(&store, &domains);
        assert_eq!(after.iter().filter(|r| r.has_error()).count(), 0);
        // Fixed domains still have SPF (the fix is a correction, not a
        // removal).
        assert_eq!(after.iter().filter(|r| r.has_spf).count(), 30);
    }

    #[test]
    fn disappearance_removes_the_domain() {
        let (store, domains) = build_errors(10);
        let before = scan(&store, &domains);
        let rates = FixRates {
            syntax: 1.0,
            include_loop: 1.0,
            invalid_ip: 1.0,
            disappear_share: 1.0,
            ..Default::default()
        };
        let outcome = apply(&store, &before, &rates, 2);
        assert_eq!(outcome.disappeared.len(), 10);
        let after = scan(&store, &domains);
        assert!(after.iter().all(|r| !r.has_spf && !r.has_error()));
    }

    #[test]
    fn zero_rates_change_nothing() {
        let (store, domains) = build_errors(10);
        let before = scan(&store, &domains);
        let rates = FixRates {
            syntax: 0.0,
            too_many_lookups: 0.0,
            too_many_void: 0.0,
            redirect_loop: 0.0,
            include_loop: 0.0,
            invalid_ip: 0.0,
            record_not_found: 0.0,
            disappear_share: 0.0,
        };
        let outcome = apply(&store, &before, &rates, 3);
        assert_eq!(outcome.total(), 0);
        let after = scan(&store, &domains);
        assert_eq!(after.iter().filter(|r| r.has_error()).count(), 10);
    }

    #[test]
    fn default_rates_match_table2() {
        let r = FixRates::default();
        assert!((r.syntax - 0.0573).abs() < 1e-9);
        assert!((r.too_many_lookups - 0.0160).abs() < 1e-9);
        assert!((r.for_class(ErrorClass::IncludeLoop) - 0.0382).abs() < 1e-9);
    }

    #[test]
    fn remediation_is_deterministic() {
        let (store_a, domains) = build_errors(100);
        let before_a = scan(&store_a, &domains);
        let out_a = apply(&store_a, &before_a, &FixRates::default(), 42);
        let (store_b, _) = build_errors(100);
        let before_b = scan(&store_b, &domains);
        let out_b = apply(&store_b, &before_b, &FixRates::default(), 42);
        assert_eq!(out_a, out_b);
    }
}
