//! End-to-end calibration: generate the synthetic Internet, crawl it with
//! the real pipeline, and check that the measured statistics land on the
//! paper's headline numbers. This is the load-bearing test behind every
//! table and figure — if the pipeline (parser, evaluator, walker, counter)
//! mis-handles any mechanism, these marginals drift.

use spf_analyzer::{ErrorClass, NotFoundCause, Walker};
use spf_crawler::{crawl, include_ecosystem, CrawlConfig, ScanAggregates};
use spf_dns::ZoneResolver;
use spf_netsim::Population;
use spf_testkit::population_at;
use std::sync::Arc;

fn build_and_crawl(denominator: u64) -> (Population, ScanAggregates, ScanAggregates) {
    let population = population_at(denominator);
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
    let output = crawl(&walker, &population.domains, CrawlConfig::with_workers(8));
    let all = ScanAggregates::compute(&output.reports);
    let top = ScanAggregates::compute(&output.reports[..population.top_len]);
    (population, all, top)
}

fn assert_close(label: &str, measured: f64, paper: f64, tolerance: f64) {
    assert!(
        (measured - paper).abs() <= tolerance,
        "{label}: measured {measured:.4} vs paper {paper:.4} (tolerance {tolerance})"
    );
}

#[test]
fn headline_rates_match_paper() {
    let (_pop, all, top) = build_and_crawl(1000);

    // Table 1: 56.5 % SPF / 13.6 % DMARC over all domains.
    assert_close("SPF rate (all)", all.spf_rate(), 0.565, 0.010);
    assert_close("DMARC rate (all)", all.dmarc_rate(), 0.136, 0.010);
    // Table 1: 60.2 % SPF / 22.6 % DMARC in the top million.
    assert_close("SPF rate (top)", top.spf_rate(), 0.602, 0.020);
    assert_close("DMARC rate (top)", top.dmarc_rate(), 0.226, 0.020);
    // §5.1: 10.4 % of MX-less domains publish SPF.
    assert_close("SPF among no-MX", all.spf_rate_among_no_mx(), 0.104, 0.010);
    // §5.1: 53.1 % of those records are bare deny-alls.
    let deny_share = all.spf_without_mx_deny_all as f64 / all.spf_without_mx.max(1) as f64;
    assert_close("deny-all share", deny_share, 0.531, 0.030);
    // §5.3: 2.9 % of SPF records have errors.
    let err_rate = all.total_errors() as f64 / all.with_spf.max(1) as f64;
    assert_close("error rate", err_rate, 0.029, 0.005);
    // §6.1: 34.7 % of SPF domains allow >100k addresses; ~1/3 allow <20.
    let lax_rate = all.lax_domains as f64 / all.with_spf.max(1) as f64;
    assert_close("lax rate", lax_rate, 0.347, 0.040);
    let tight_rate = all.tight_domains as f64 / all.with_spf.max(1) as f64;
    assert_close("tight rate", tight_rate, 0.333, 0.050);
    // §6.3: 67.0 % of SPF domains use include.
    let inc_rate = all.uses_include as f64 / all.with_spf.max(1) as f64;
    assert_close("include rate", inc_rate, 0.670, 0.020);
}

#[test]
fn error_classes_match_figure2_proportions() {
    let (_pop, all, _) = build_and_crawl(1000);
    let total = all.total_errors() as f64;
    assert!(total > 150.0, "too few errors measured: {total}");
    // Figure 2 shares of the 211,018 erroneous domains.
    let share =
        |class: ErrorClass| all.error_counts.get(&class).copied().unwrap_or(0) as f64 / total;
    assert_close(
        "record-not-found share",
        share(ErrorClass::RecordNotFound),
        0.4298,
        0.05,
    );
    assert_close(
        "too-many-lookups share",
        share(ErrorClass::TooManyDnsLookups),
        0.2342,
        0.05,
    );
    assert_close("syntax share", share(ErrorClass::SyntaxError), 0.1815, 0.05);
    assert_close(
        "include-loop share",
        share(ErrorClass::IncludeLoop),
        0.0917,
        0.04,
    );
    assert_close(
        "invalid-ip share",
        share(ErrorClass::InvalidIpAddress),
        0.0374,
        0.03,
    );
    assert_close(
        "void-lookup share",
        share(ErrorClass::TooManyVoidDnsLookups),
        0.0252,
        0.02,
    );
    assert!(
        all.error_counts
            .get(&ErrorClass::RedirectLoop)
            .copied()
            .unwrap_or(0)
            >= 1
    );
}

#[test]
fn not_found_causes_match_figure3() {
    let (_pop, all, _) = build_and_crawl(1000);
    let nf_total: u64 = all.not_found_causes.values().sum();
    assert!(nf_total > 50);
    let share = |cause: NotFoundCause| {
        all.not_found_causes.get(&cause).copied().unwrap_or(0) as f64 / nf_total as f64
    };
    // Figure 3: 53.8 % no-SPF-record, 40.5 % NXDOMAIN.
    assert_close(
        "no-spf cause",
        share(NotFoundCause::NoSpfRecord),
        0.538,
        0.06,
    );
    assert_close(
        "nxdomain cause",
        share(NotFoundCause::DomainNotFound),
        0.405,
        0.06,
    );
    assert!(all
        .not_found_causes
        .contains_key(&NotFoundCause::DnsTimeout));
    assert!(all
        .not_found_causes
        .contains_key(&NotFoundCause::MultipleSpfRecords));
}

#[test]
fn include_ecosystem_matches_table4_ordering() {
    let population = population_at(500);
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
    let output = crawl(&walker, &population.domains, CrawlConfig::with_workers(8));
    let eco = include_ecosystem(&output.reports, &walker);

    // The two giants must come out on top, in order, with the exact
    // allowed-IP counts from Table 4.
    assert_eq!(eco[0].domain.as_str(), "spf.protection.outlook.com");
    assert_eq!(eco[0].allowed_ips, 491_520);
    assert_eq!(eco[1].domain.as_str(), "_spf.google.com");
    assert_eq!(eco[1].allowed_ips, 328_960);
    assert!(eco[0].used_by > eco[1].used_by);

    // The ovh-style include is tiny and flagged for ptr.
    let ovh = eco
        .iter()
        .find(|s| s.domain.as_str() == "mx.ovh.com")
        .expect("ovh present");
    assert_eq!(ovh.allowed_ips, 2);
    assert!(ovh.uses_ptr);

    // Figure 4: fat includes exceed the lookup limit; the dominant one
    // needs exactly 14 lookups.
    let over: Vec<_> = eco.iter().filter(|s| s.dns_lookups > 10).collect();
    assert!(!over.is_empty());
    let bluehost = over.iter().max_by_key(|s| s.used_by).unwrap();
    assert_eq!(bluehost.dns_lookups, 14);
    let total_over_users: u64 = over.iter().map(|s| s.used_by).sum();
    let share = bluehost.used_by as f64 / total_over_users as f64;
    assert!((0.60..=0.95).contains(&share), "bluehost share {share}");
}

#[test]
fn population_is_deterministic_across_runs() {
    let (_, a1, _) = build_and_crawl(2000);
    let (_, a2, _) = build_and_crawl(2000);
    assert_eq!(a1, a2);
}
