//! Overlap-engine determinism under stress (ISSUE 4's acceptance
//! matrix): the population's address-space overlap profile — the
//! sweep-line's [`WeightedRanges`] and the distilled [`OverlapReport`] —
//! must serialize *byte-identically* across worker counts, in both
//! resolver substrates (and across server shards over the wire).
//!
//! Unlike the report slot table (deterministic by rank placement), the
//! coverage profile is merged from per-worker accumulators whose
//! *content* depends on which worker analyzed which domain; the suite
//! pins down DESIGN.md §7's claim that the commutative delta-sum erases
//! that scheduling freedom entirely.

use lazy_gatekeepers::crawler::DEFAULT_PROVIDER_ROWS;
use lazy_gatekeepers::prelude::*;
use spf_testkit::population_at;
use std::sync::Arc;

/// Serialize a crawl's full overlap state: the weighted coverage profile
/// and the distilled report (histogram, max coverage, provider rows).
fn overlap_json<R: Resolver>(
    walker: &Walker<R>,
    out: lazy_gatekeepers::crawler::CrawlOutput,
) -> String {
    let eco = include_ecosystem(&out.reports, walker);
    let spf_domains = out.reports.iter().filter(|r| r.has_spf).count() as u64;
    let weighted = out.coverage.into_weighted();
    let report = OverlapReport::compute(&weighted, &eco, spf_domains, DEFAULT_PROVIDER_ROWS);
    format!(
        "{}\n{}",
        serde_json::to_string(&weighted).expect("weighted ranges serialize"),
        serde_json::to_string(&report).expect("overlap report serializes")
    )
}

/// One in-memory crawl with `workers` workers.
fn memory_overlap_json(population: &Population, workers: usize) -> String {
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
    let out = crawl(
        &walker,
        &population.domains,
        CrawlConfig::with_workers(workers),
    );
    overlap_json(&walker, out)
}

/// One wire-mode crawl (fresh fleet and resolver) under workers/servers.
fn wire_overlap_json(population: &Population, workers: usize, servers: usize) -> String {
    let fleet = WireFleet::spawn(&population.store, servers, ServerConfig::default())
        .expect("fleet spawns");
    let resolver = Arc::new(fleet.resolver(WireClientConfig::crawl()));
    let walker = Walker::new(Arc::clone(&resolver));
    let out = crawl(
        &walker,
        &population.domains,
        CrawlConfig::with_workers(workers).backend(Backend::wire(servers)),
    );
    overlap_json(&walker, out)
}

#[test]
fn overlap_byte_identical_across_memory_matrix() {
    // Workers ∈ {4, 32} at scale 1:500, compared against the
    // single-threaded reference.
    let population = population_at(500);
    let reference = memory_overlap_json(&population, 1);
    assert!(reference.contains("\"weight\""), "profile is non-trivial");
    for workers in [4usize, 32] {
        assert!(
            memory_overlap_json(&population, workers) == reference,
            "overlap diverged at workers={workers}"
        );
    }
}

#[test]
fn overlap_byte_identical_across_wire_matrix() {
    // The workers over real sockets × server shards, compared against
    // the *in-memory* reference: the transport must not leak into the
    // profile either.
    let population = population_at(2_000);
    let reference = memory_overlap_json(&population, 1);
    for workers in [1usize, 4, 32] {
        for servers in [1usize, 16] {
            assert!(
                wire_overlap_json(&population, workers, servers) == reference,
                "wire overlap diverged at workers={workers} servers={servers}"
            );
        }
    }
}
