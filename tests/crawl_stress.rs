//! Crawl determinism under stress: the striped memo, batched dispatch,
//! and worker pool may divide the work any way they like, but the report
//! vector must stay bit-identical — DESIGN.md §3's core guarantee. This
//! suite crawls the 1:500 population (≈25.6k domains) across worker
//! counts, then double-checks byte-level equality through the serialized
//! form at a smaller scale.

use lazy_gatekeepers::crawler::DEFAULT_BATCH_SIZE;
use lazy_gatekeepers::prelude::*;
use spf_testkit::population_at;
use std::sync::Arc;

fn crawl_with(population: &Population, workers: usize) -> (Vec<DomainReport>, CrawlStats) {
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
    let config = CrawlConfig::with_workers(workers);
    let out = crawl(&walker, &population.domains, config);
    if let Err(law) = out.stats.check_conservation(&config) {
        panic!("workers={workers}: {law}");
    }
    (out.reports, out.stats)
}

/// Project a report onto every field that matters for the paper's
/// artifacts (the full `DomainReport` has no `Eq`, but its serialized form
/// is compared byte-for-byte in the test below).
fn fingerprint(reports: &[DomainReport]) -> Vec<(String, bool, bool, bool, u64, usize, String)> {
    reports
        .iter()
        .map(|r| {
            (
                r.domain.to_string(),
                r.has_spf,
                r.has_mx,
                r.has_dmarc,
                r.allowed_ip_count(),
                r.record.as_ref().map(|a| a.errors.len()).unwrap_or(0),
                format!("{:?}", r.primary_error),
            )
        })
        .collect()
}

#[test]
fn crawl_results_identical_across_worker_counts() {
    // Workers ∈ {1, 4, 32} at --scale 500, all compared against a
    // single-threaded reference crawl.
    let population = population_at(500);
    let (reference, ref_stats) = crawl_with(&population, 1);
    assert_eq!(reference.len(), population.domains.len());
    let reference_fp = fingerprint(&reference);

    for workers in [1usize, 4, 32] {
        let (reports, stats) = crawl_with(&population, workers);
        assert_eq!(
            fingerprint(&reports),
            reference_fp,
            "diverged at workers={workers}"
        );
        // The probe pattern itself is deterministic for a fixed walk
        // set, however it is scheduled: single-threaded runs must match
        // the reference exactly.
        if workers == 1 {
            assert_eq!(stats.cache_hits, ref_stats.cache_hits);
            assert_eq!(stats.cache_misses, ref_stats.cache_misses);
        }
    }
}

#[test]
fn crawl_reports_serialize_bit_identically() {
    // Byte-level check of the full serialized report stream (covers every
    // field, including ones the fingerprint projection might miss).
    let population = population_at(5_000);
    let serialize = |workers: usize| {
        let (reports, _) = crawl_with(&population, workers);
        serde_json::to_string(&reports).expect("reports serialize")
    };
    let reference = serialize(1);
    assert_eq!(reference, serialize(32));
    assert_eq!(reference, serialize(4));
}

#[test]
fn queue_depth_stays_bounded_under_stress() {
    let population = population_at(2_000);
    let workers = 4usize;
    let (_, stats) = crawl_with(&population, workers);
    // A worker holds one batch at a time — the dispatch window, far
    // below the population.
    assert!(stats.peak_queue_depth <= workers * DEFAULT_BATCH_SIZE);
    assert!((stats.peak_queue_depth as u64) < stats.domains);
}
