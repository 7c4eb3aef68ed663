//! `crawl-memory` and `crawl-wire`: the paper's scan, in-process and
//! over loopback UDP. Same walker, same domains per scale; the wire
//! variant adds the `dns::wire` codec, `dns::fleet` and the kernel.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spf_analyzer::Walker;
use spf_bench::{build_resolver, WireRun};
use spf_crawler::{crawl, CrawlConfig};
use spf_dns::{Resolver, WireSnapshot, ZoneResolver};
use spf_netsim::{Population, PopulationConfig, Scale};
use spf_types::Backend;

use super::{TimedCalls, Workload};
use crate::check::{crawl_digest, CrawlSummary};
use crate::trace::Tracer;
use crate::{Measured, ProbeWorld, Sizes, MEMORY_POOL, WIRE_BACKEND, WIRE_WORKERS};

/// A set-up crawl workload.
pub struct Crawl {
    population: Population,
    backend: Backend,
    workers: usize,
    reference_summary: CrawlSummary,
    reference_digest: u64,
    /// The first iteration's resolver stack, spawned during set-up so
    /// `setup_s` sees what a fleet costs to start.
    first_stack: Option<(Arc<dyn Resolver>, Option<WireRun>)>,
}

impl Crawl {
    /// `crawl-memory`: backend `memory`, pool of [`MEMORY_POOL`].
    pub fn memory(seed: u64, sizes: &Sizes, tracer: &mut Tracer) -> Crawl {
        Crawl::setup(
            seed,
            sizes.crawl_memory_scale,
            Backend::memory(),
            MEMORY_POOL,
            tracer,
        )
    }

    /// `crawl-wire`: backend [`WIRE_BACKEND`], pool of [`WIRE_WORKERS`].
    pub fn wire(seed: u64, sizes: &Sizes, tracer: &mut Tracer) -> Crawl {
        let backend = Backend::parse(WIRE_BACKEND).expect("the wire backend string parses");
        Crawl::setup(seed, sizes.crawl_wire_scale, backend, WIRE_WORKERS, tracer)
    }

    fn setup(
        seed: u64,
        denominator: u64,
        backend: Backend,
        workers: usize,
        tracer: &mut Tracer,
    ) -> Crawl {
        let span = tracer.begin("Population::build");
        let population = Population::build(PopulationConfig {
            scale: Scale { denominator },
            seed,
        });
        tracer.end(span);
        // The reference every timed crawl is checked against: one
        // in-memory crawl of the same domains.
        let span = tracer.begin("reference crawl");
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
        let output = crawl(
            &walker,
            &population.domains,
            CrawlConfig::with_workers(MEMORY_POOL),
        );
        let weighted = output.coverage.into_weighted();
        let reference_summary = CrawlSummary::of(&output.reports, &weighted);
        let reference_digest = crawl_digest(&output.reports, &weighted);
        tracer.end(span);
        let span = tracer.begin("build_resolver");
        let first_stack = Some(build_resolver(&population.store, backend));
        tracer.end(span);
        Crawl {
            population,
            backend,
            workers,
            reference_summary,
            reference_digest,
            first_stack,
        }
    }
}

impl Workload for Crawl {
    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Measured {
        let domains = &self.population.domains;
        let n = domains.len() as u64;
        let config = CrawlConfig::with_workers(self.workers).backend(self.backend);
        let started = Instant::now();
        let mut calls = TimedCalls::default();
        let mut failed_ops = 0u64;
        let mut wire = WireSnapshot::default();
        let mut last_digest = 0u64;
        let stats = loop {
            // A fresh resolver stack and walker per iteration: every
            // timed crawl starts with cold caches, as a scan does.
            let span = tracer.begin("build_resolver");
            let (resolver, fleet) = self
                .first_stack
                .take()
                .unwrap_or_else(|| build_resolver(&self.population.store, self.backend));
            tracer.end(span);
            let span = tracer.begin("Walker::new");
            let walker = Walker::new(resolver);
            tracer.end(span);

            let span = tracer.begin("crawl");
            let output = calls.time(|| crawl(&walker, domains, config), |_| n);
            tracer.end(span);

            let span = tracer.begin("check");
            let weighted = output.coverage.into_weighted();
            if CrawlSummary::of(&output.reports, &weighted) != self.reference_summary {
                failed_ops += n;
            }
            // The full digest costs more than the crawl, so only the
            // last iteration pays for it.
            let last = started.elapsed() >= budget;
            if last {
                last_digest = crawl_digest(&output.reports, &weighted);
            }
            tracer.end(span);
            if let Some(fleet) = fleet {
                let snap = fleet.snapshot();
                wire.queries += snap.queries;
                wire.cache_hits += snap.cache_hits;
                wire.coalesced += snap.coalesced;
                wire.wire_queries += snap.wire_queries;
                wire.retries += snap.retries;
                wire.tcp_fallbacks += snap.tcp_fallbacks;
                wire.temp_errors += snap.temp_errors;
            }
            if last {
                break output.stats;
            }
        };
        if last_digest != self.reference_digest && failed_ops == 0 {
            failed_ops += n;
        }
        let iterations = calls.samples.len() as u64;
        Measured {
            ops: n * iterations,
            failed_ops,
            latency_us: calls.per_op_us(),
            samples: calls.samples,
            counts: vec![
                ("domains", n),
                ("output_digest", last_digest),
                (
                    "dns.fleet.datagrams_per_crawl",
                    wire.wire_queries / iterations,
                ),
            ],
            layers: vec![
                ("analyzer.cache.hit_rate", stats.cache_hit_rate()),
                (
                    "crawler.crawl.peak_queue_depth",
                    stats.peak_queue_depth as f64,
                ),
                ("crawler.crawl.batches", stats.batches as f64),
                (
                    "dns.fleet.amplification",
                    wire.amplification(n * iterations),
                ),
                ("dns.fleet.cache_hit_rate", wire.cache_hit_rate()),
                ("dns.fleet.coalesce_rate", wire.coalesce_rate()),
                ("dns.fleet.retries", wire.retries as f64 / iterations as f64),
                (
                    "dns.fleet.temp_errors",
                    wire.temp_errors as f64 / iterations as f64,
                ),
                (
                    "dns.fleet.tcp_fallbacks",
                    wire.tcp_fallbacks as f64 / iterations as f64,
                ),
            ],
        }
    }

    fn probe_world(&self) -> ProbeWorld {
        ProbeWorld {
            store: Arc::clone(&self.population.store),
            domains: self.population.domains.clone(),
            ips: Vec::new(),
        }
    }
}
