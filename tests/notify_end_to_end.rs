//! Table 2 end-to-end at population scale: crawl → campaign → remediation
//! → rescan, asserting the paper's shape — per-class reductions near the
//! published rates, untouched cohorts stable, and the campaign volume
//! matching §5.4's operator-dedup arithmetic.

use std::sync::Arc;

use spf_analyzer::{ErrorClass, Walker};
use spf_crawler::{crawl, CrawlConfig, ScanAggregates};
use spf_dns::{Clock, VirtualClock, ZoneResolver};
use spf_notify::{apply_remediation, Campaign, CampaignConfig, FixRates};
use spf_testkit::population_at;

#[test]
fn campaign_and_rescan_reproduce_table2_shape() {
    let pop = population_at(500);
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&pop.store)));
    let out = crawl(&walker, &pop.domains, CrawlConfig::with_workers(8));
    let before = ScanAggregates::compute(&out.reports);
    assert!(before.total_errors() > 300, "need a real error population");

    // §5.4: notify everyone except record-not-found.
    let clock = Arc::new(VirtualClock::new());
    let mut campaign = Campaign::new(CampaignConfig::default(), clock.clone());
    let outcome = campaign.run(&out.reports);
    let not_found = before
        .error_counts
        .get(&ErrorClass::RecordNotFound)
        .copied()
        .unwrap_or(0);
    assert_eq!(outcome.eligible, before.total_errors() - not_found);
    let sent_ratio = outcome.sent as f64 / outcome.eligible as f64;
    assert!(
        (0.90..=0.96).contains(&sent_ratio),
        "operator dedup ratio {sent_ratio}"
    );
    // 1 msg/s: virtual time advanced by exactly `sent` seconds.
    assert_eq!(clock.now().as_secs(), outcome.sent);

    // Operators fix records; rescan two virtual weeks later.
    apply_remediation(&pop.store, &out.reports, &FixRates::default(), 0xF1);
    let walker2 = Walker::new(ZoneResolver::new(Arc::clone(&pop.store)));
    let rescan = crawl(&walker2, &pop.domains, CrawlConfig::with_workers(8));
    let after = ScanAggregates::compute(&rescan.reports);

    // Total reduction near the paper's 3.28 %.
    let reduction = 1.0 - after.total_errors() as f64 / before.total_errors() as f64;
    assert!(
        (0.015..=0.055).contains(&reduction),
        "total error reduction {reduction:.4} (paper: 0.0328)"
    );

    // Syntax errors improve the most, lookup limits the least — the
    // ordering the paper explains by fix difficulty.
    let rate =
        |agg: &ScanAggregates, class| agg.error_counts.get(&class).copied().unwrap_or(0) as f64;
    let syntax_red =
        1.0 - rate(&after, ErrorClass::SyntaxError) / rate(&before, ErrorClass::SyntaxError);
    let lookup_red = 1.0
        - rate(&after, ErrorClass::TooManyDnsLookups)
            / rate(&before, ErrorClass::TooManyDnsLookups);
    assert!(
        syntax_red > lookup_red,
        "syntax errors ({syntax_red:.3}) must improve faster than lookup limits ({lookup_red:.3})"
    );

    // Adoption must not drift: fixes correct records, they do not remove
    // them (only the small disappeared share may dent the count).
    let spf_drop = before.with_spf - after.with_spf;
    assert!(
        spf_drop as f64 <= before.total_errors() as f64 * 0.02,
        "adoption dropped by {spf_drop}"
    );
}
