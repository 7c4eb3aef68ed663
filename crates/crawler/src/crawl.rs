//! The multi-worker crawl loop (§4.1 of the paper).
//!
//! The study distributed DNS requests across 150 rate-limited servers and
//! deduplicated work through a record cache. Here a pool of worker threads
//! claims rank-indexed *batches* of domains and runs the full per-domain
//! analysis; the [`Walker`]'s memo is shared across workers,
//! so each provider include is resolved exactly once no matter how many
//! customers reference it.
//!
//! Dispatch is *batched and bounded* (the crate's one pool, `pool.rs`): a
//! worker claims the next [`DEFAULT_BATCH_SIZE`] domains with one atomic
//! add on a cursor over the input slice, so in-flight work is at most
//! `workers × DEFAULT_BATCH_SIZE` domains and synchronization is paid
//! once per batch instead of once per domain. Results are placed by rank
//! into a preallocated slot table as they arrive, so reports come back in
//! input order and are bit-identical for every worker count (each report
//! is a deterministic function of the zone alone).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use spf_analyzer::{analyze_domain, DomainReport, Walker};
use spf_dns::Resolver;
use spf_types::{Backend, CoverageMap, DomainName, StatItem, Stats};

use crate::pool;

/// The work-batch size of every engine (crawl, matrix, churn rows): the
/// domains a worker claims at once. The sweep in
/// docs/history/BENCH_2.json showed throughput flat from 16 upward with
/// the knee below 16, so 64 keeps per-batch channel overhead negligible
/// without hurting tail balance at small populations. It is a constant,
/// like the memo's stripe count: no caller had a reason to set it.
pub const DEFAULT_BATCH_SIZE: usize = 64;

/// The configuration of every engine in this crate: the crawl, the spoof
/// matrix ([`crate::auth_matrix`]) and the churn engine.
///
/// The crawl loop itself is transport-agnostic (it only sees a
/// [`Resolver`] through the walker); the [`Backend`] travels here so the
/// pipeline assemblers — `bench::prepare`, the `repro` CLI, the stress
/// suites — build the right stack. Every transport produces
/// byte-identical report streams, the zone's faulted names included. The
/// matrix engines read the backend's [`spf_types::Evaluator`] and
/// nothing else of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlConfig {
    /// Number of worker threads (the paper used 150 query endpoints; CPU
    /// workers are the in-process analogue).
    pub workers: usize,
    /// The engine selection (transport × shard count × evaluator) the
    /// pipeline assembles for this crawl.
    pub backend: Backend,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            workers: 8,
            backend: Backend::default(),
        }
    }
}

impl CrawlConfig {
    /// A config with `workers` threads and the default backend.
    pub fn with_workers(workers: usize) -> Self {
        CrawlConfig {
            workers,
            ..CrawlConfig::default()
        }
    }

    /// Builder-style override of [`CrawlConfig::backend`].
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

/// Observability counters for one crawl, printed by the `repro` CLI's
/// throughput line and read by the `crawl-*` workloads' `crawler.crawl.*`
/// probes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrawlStats {
    /// Domains crawled.
    pub domains: u64,
    /// Wall-clock seconds the crawl took.
    pub elapsed_secs: f64,
    /// Walker memo-cache hits during this crawl (delta, not lifetime).
    pub cache_hits: u64,
    /// Walker memo-cache misses during this crawl (delta, not lifetime).
    pub cache_misses: u64,
    /// Highest number of claimed-but-unfinished domains observed —
    /// bounded by `workers × DEFAULT_BATCH_SIZE` (a worker holds one
    /// batch at a time), the proof that dispatch memory does not grow
    /// with population size.
    pub peak_queue_depth: usize,
    /// Batches the workers claimed: `ceil(domains / DEFAULT_BATCH_SIZE)`.
    pub batches: u64,
}

impl CrawlStats {
    /// Crawl throughput in domains per second.
    fn domains_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.domains as f64 / self.elapsed_secs
        }
    }

    /// Memo-cache hits as a fraction of probes during this crawl.
    pub fn cache_hit_rate(&self) -> f64 {
        let probes = self.cache_hits + self.cache_misses;
        if probes == 0 {
            0.0
        } else {
            self.cache_hits as f64 / probes as f64
        }
    }

    /// Check the counter laws of a crawl run with `config`; `Err` names
    /// the broken law and the counters.
    ///
    /// * Every domain sits in exactly one claimed batch:
    ///   `batches == ceil(domains / DEFAULT_BATCH_SIZE)`.
    /// * A worker holds one batch at a time:
    ///   `peak_queue_depth <= workers × DEFAULT_BATCH_SIZE`.
    /// * Every domain probes the walker memo once for its root:
    ///   `cache_hits + cache_misses >= domains`.
    ///
    /// The worker count is clamped to at least 1, as the pool clamps it.
    pub fn check_conservation(&self, config: &CrawlConfig) -> Result<(), String> {
        let workers = config.workers.max(1);
        if self.batches != self.domains.div_ceil(DEFAULT_BATCH_SIZE as u64) {
            return Err(format!(
                "batches != ceil(domains / {DEFAULT_BATCH_SIZE}): {self:?}"
            ));
        }
        if self.peak_queue_depth > workers.saturating_mul(DEFAULT_BATCH_SIZE) {
            return Err(format!(
                "peak_queue_depth > workers = {workers} × {DEFAULT_BATCH_SIZE}: {self:?}"
            ));
        }
        if self.cache_hits + self.cache_misses < self.domains {
            return Err(format!(
                "cache_hits + cache_misses < domains (one root probe each): {self:?}"
            ));
        }
        Ok(())
    }
}

impl Stats for CrawlStats {
    fn scope(&self) -> &'static str {
        "throughput"
    }

    fn items(&self) -> Vec<StatItem> {
        vec![
            StatItem::per_sec("domains", self.domains_per_sec()),
            StatItem::count("crawled", self.domains),
            StatItem::float("elapsed_s", self.elapsed_secs),
            StatItem::percent("cache_hit", self.cache_hit_rate()),
            StatItem::count("hits", self.cache_hits),
            StatItem::count("misses", self.cache_misses),
            StatItem::count("peak_queue", self.peak_queue_depth as u64),
            StatItem::count("batches", self.batches),
        ]
    }
}

/// A crawl's output: per-domain reports in input (rank) order plus timing.
#[derive(Debug)]
pub struct CrawlOutput {
    /// One report per input domain, in input order (index = Tranco rank-1).
    pub reports: Vec<DomainReport>,
    /// Wall-clock duration of the crawl.
    pub elapsed: Duration,
    /// Throughput and queue counters for this crawl.
    pub stats: CrawlStats,
    /// The population's address-space coverage, accumulated per worker
    /// during the crawl and merged on the way out: every SPF-bearing
    /// domain's flattened range set contributes its boundary deltas, so
    /// `coverage.into_weighted()` answers "how many domains authorize
    /// each address" without revisiting a single report (see
    /// [`crate::overlap`]).
    pub coverage: CoverageMap,
}

/// Crawl `domains` through `walker` with a worker pool.
///
/// Reports come back in input order, so the caller can treat the index as
/// the Tranco rank (the top-1M cut of Table 1 is `&reports[..1_000_000]`).
/// The report vector is bit-identical across every worker count.
pub fn crawl<R: Resolver>(
    walker: &Walker<R>,
    domains: &[DomainName],
    config: CrawlConfig,
) -> CrawlOutput {
    let started = Instant::now();
    let cache_before = walker.cache_stats();

    let mut slots: Vec<Option<DomainReport>> = (0..domains.len()).map(|_| None).collect();
    // Each worker folds the flattened range sets it analyzes into its own
    // coverage accumulator. Deltas form a commutative monoid, so the
    // merged coverage is identical however domains were batched across
    // workers (DESIGN.md §7).
    let (worker_coverage, dispatch) = pool::run(
        domains,
        config.workers,
        DEFAULT_BATCH_SIZE,
        CoverageMap::new,
        |coverage, batch| {
            batch
                .iter()
                .map(|domain| {
                    let report = analyze_domain(walker, domain);
                    // Only SPF-bearing domains authorize space — the same
                    // population Figure 5 counts.
                    if report.has_spf {
                        if let Some(record) = report.record.as_ref() {
                            coverage.add_set(&record.ips);
                        }
                    }
                    report
                })
                .collect::<Vec<_>>()
        },
        // Place results by rank as they arrive; no post-hoc sort.
        |first, reports| {
            for (slot, report) in slots[first..].iter_mut().zip(reports) {
                *slot = Some(report);
            }
        },
    );
    let mut coverage = CoverageMap::new();
    for worker in worker_coverage {
        coverage.merge(worker);
    }

    let reports: Vec<DomainReport> = slots
        .into_iter()
        .map(|slot| slot.expect("every dispatched domain reports back"))
        .collect();
    let elapsed = started.elapsed();
    let cache_after = walker.cache_stats();
    let stats = CrawlStats {
        domains: reports.len() as u64,
        elapsed_secs: elapsed.as_secs_f64(),
        cache_hits: cache_after.hits - cache_before.hits,
        cache_misses: cache_after.misses - cache_before.misses,
        peak_queue_depth: dispatch.peak_queue_depth,
        batches: dispatch.batches,
    };
    CrawlOutput {
        reports,
        elapsed,
        stats,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{ZoneResolver, ZoneStore};
    use spf_testkit::{dom, CountingResolver};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    /// [`crawl`], with the run's counter laws asserted.
    fn checked_crawl<R: Resolver>(
        walker: &Walker<R>,
        domains: &[DomainName],
        config: CrawlConfig,
    ) -> CrawlOutput {
        let out = crawl(walker, domains, config);
        if let Err(law) = out.stats.check_conservation(&config) {
            panic!("{law}");
        }
        out
    }

    fn build_world(n: usize) -> (Arc<ZoneStore>, Vec<DomainName>) {
        let store = Arc::new(ZoneStore::new());
        // One shared provider plus n customers.
        store.add_txt(
            &dom("spf.provider.example"),
            "v=spf1 ip4:198.51.100.0/24 -all",
        );
        let mut domains = Vec::new();
        for i in 0..n {
            let d = dom(&format!("customer{i}.example"));
            store.add_txt(&d, "v=spf1 include:spf.provider.example -all");
            store.add_mx(&d, 10, &dom("mx.provider.example"));
            domains.push(d);
        }
        store.add_a(&dom("mx.provider.example"), Ipv4Addr::new(198, 51, 100, 25));
        (store, domains)
    }

    #[test]
    fn crawl_preserves_input_order() {
        let (store, domains) = build_world(50);
        let walker = Walker::new(ZoneResolver::new(store));
        let out = checked_crawl(&walker, &domains, CrawlConfig::with_workers(4));
        assert_eq!(out.reports.len(), 50);
        for (i, r) in out.reports.iter().enumerate() {
            assert_eq!(r.domain, domains[i]);
        }
    }

    #[test]
    fn crawl_results_identical_across_worker_counts() {
        // Five batches, so eight workers really split the input.
        let (store, domains) = build_world(5 * DEFAULT_BATCH_SIZE);
        let run = |workers| {
            let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
            checked_crawl(&walker, &domains, CrawlConfig::with_workers(workers))
                .reports
                .iter()
                .map(|r| (r.domain.clone(), r.has_spf, r.allowed_ip_count()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn shared_cache_deduplicates_provider_lookups() {
        let (store, domains) = build_world(100);
        let counting = CountingResolver::new(ZoneResolver::new(store));
        let stats = counting.stats();
        let walker = Walker::new(counting);
        checked_crawl(&walker, &domains, CrawlConfig::with_workers(4));
        let queries = stats.queries.load(std::sync::atomic::Ordering::Relaxed);
        // Per customer: TXT + MX + SPF(99) + _dmarc TXT = 4 queries, plus a
        // handful for the shared provider (racing workers may fetch it more
        // than once before the first result lands in the cache).
        assert!(queries < 100 * 4 + 20, "queries = {queries}");
    }

    #[test]
    fn crawl_stats_track_cache_and_queue() {
        let n = 3 * DEFAULT_BATCH_SIZE + 10;
        let (store, domains) = build_world(n);
        let walker = Walker::new(ZoneResolver::new(store));
        let out = checked_crawl(&walker, &domains, CrawlConfig::with_workers(2));
        let stats = out.stats;
        assert_eq!(stats.domains, n as u64);
        // Every domain probes the cache at least once (its own root miss),
        // and the customers share one provider include → hits (racing
        // workers may take a handful of extra misses before the first
        // provider analysis lands).
        assert!(
            stats.cache_misses >= n as u64,
            "misses = {}",
            stats.cache_misses
        );
        assert!(
            stats.cache_hits >= n as u64 - 10,
            "hits = {}",
            stats.cache_hits
        );
        assert!(stats.cache_hit_rate() > 0.0 && stats.cache_hit_rate() < 1.0);
        assert_eq!(stats.batches, 4);
        // Queue depth is bounded by the dispatch window, not the
        // population: a worker holds one batch at a time.
        assert!(stats.peak_queue_depth >= 1);
        assert!(
            stats.peak_queue_depth <= 2 * DEFAULT_BATCH_SIZE,
            "peak {} > workers × DEFAULT_BATCH_SIZE",
            stats.peak_queue_depth
        );
        assert!(stats.domains_per_sec() > 0.0);
    }

    #[test]
    fn stats_are_deltas_not_lifetime_totals() {
        let (store, domains) = build_world(20);
        let walker = Walker::new(ZoneResolver::new(store));
        let first = checked_crawl(&walker, &domains, CrawlConfig::with_workers(1));
        // A warm second pass over the same walker: every root is already
        // cached, so misses stay at zero for the crawl's delta.
        let second = checked_crawl(&walker, &domains, CrawlConfig::with_workers(1));
        assert!(first.stats.cache_misses > 0);
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.cache_hits, 20);
    }

    #[test]
    fn conservation_names_each_broken_law() {
        let config = CrawlConfig::with_workers(2);
        let sound = CrawlStats {
            domains: 200,
            elapsed_secs: 0.1,
            cache_hits: 190,
            cache_misses: 10,
            peak_queue_depth: 2 * DEFAULT_BATCH_SIZE,
            batches: 4,
        };
        assert_eq!(sound.check_conservation(&config), Ok(()));
        let broken = [
            CrawlStats {
                batches: 3,
                ..sound
            },
            CrawlStats {
                peak_queue_depth: 2 * DEFAULT_BATCH_SIZE + 1,
                ..sound
            },
            CrawlStats {
                cache_hits: 189,
                ..sound
            },
        ];
        for (stats, law) in broken
            .iter()
            .zip(["batches", "peak_queue_depth", "cache_hits"])
        {
            let err = stats.check_conservation(&config).unwrap_err();
            assert!(err.starts_with(law), "{err}");
        }
        // A zero worker count is clamped to one, as the pool does.
        let clamped = CrawlConfig::with_workers(0);
        let one_worker = CrawlStats {
            peak_queue_depth: DEFAULT_BATCH_SIZE,
            ..sound
        };
        assert_eq!(one_worker.check_conservation(&clamped), Ok(()));
        let over = CrawlStats {
            peak_queue_depth: DEFAULT_BATCH_SIZE + 1,
            ..sound
        };
        assert!(over.check_conservation(&clamped).is_err());
    }

    #[test]
    fn empty_input() {
        let store = Arc::new(ZoneStore::new());
        let walker = Walker::new(ZoneResolver::new(store));
        let out = checked_crawl(&walker, &[], CrawlConfig::default());
        assert!(out.reports.is_empty());
        assert_eq!(out.stats.domains, 0);
        assert_eq!(out.stats.batches, 0);
        assert!(out.coverage.is_empty());
    }

    #[test]
    fn coverage_merges_identically_across_workers() {
        // Every customer includes the same /24, so the merged coverage is
        // one range at weight = population — and it must come out the
        // same whether one worker saw everything or eight split it.
        let n = 5 * DEFAULT_BATCH_SIZE;
        let (store, domains) = build_world(n);
        let run = |workers: usize| {
            let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
            let out = checked_crawl(&walker, &domains, CrawlConfig::with_workers(workers));
            assert_eq!(out.coverage.set_count(), n as u64);
            out.coverage.into_weighted()
        };
        let reference = run(1);
        assert_eq!(reference.max_weight(), n as u64);
        assert_eq!(reference.total_covered(), 256);
        assert_eq!(reference, run(8));
    }
}
