//! `churn-epochs`: the longitudinal path. Monthly epochs of 1 % zone
//! churn against the default 45 d + 30 d-jitter TTLs, so churn-only
//! epochs alternate with epochs in which much of the population is due.
//! Planning, applying and delivering a batch is untimed; `step` is the
//! timed operation and a re-crawled domain is the unit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spf_analyzer::Walker;
use spf_crawler::{
    crawl, select_vantages, ChurnEngine, CrawlConfig, LongitudinalConfig, SpoofMatrixConfig,
    ZoneDelta, DEFAULT_CONTROLS, DEFAULT_TOP_COVERAGE,
};
use spf_dns::ZoneResolver;
use spf_netsim::{ChurnConfig, ChurnSimulator, Population, PopulationConfig, Scale};

use super::{TimedCalls, Workload};
use crate::check::crawl_digest;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Measured, ProbeWorld, Sizes, MEMORY_POOL};

/// One epoch of virtual time.
pub const MONTH: Duration = Duration::from_secs(30 * 86_400);
/// Share of the population churned per epoch.
pub const CHURN_RATE: f64 = 0.01;
/// Epochs after which the engine's state is compared with a
/// from-scratch crawl (and once more after the last epoch of a run).
const CHECK_EPOCHS: [u64; 2] = [10, 30];

/// A set-up churn workload.
pub struct Churn {
    population: Population,
    walker: Walker<ZoneResolver>,
    engine: ChurnEngine,
    simulator: ChurnSimulator,
    epoch: u64,
    recrawled_total: u64,
}

impl Churn {
    /// Bootstrap the engine, attach the matrix over the default vantage
    /// selection (cached evaluator), and arm the simulator.
    pub fn setup(seed: u64, sizes: &Sizes, tracer: &mut Tracer) -> Churn {
        let span = tracer.begin("Population::build");
        let population = Population::build(PopulationConfig {
            scale: Scale {
                denominator: sizes.churn_scale,
            },
            seed,
        });
        tracer.end(span);
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
        let span = tracer.begin("ChurnEngine::bootstrap");
        let engine = ChurnEngine::bootstrap(
            &walker,
            population.domains.clone(),
            LongitudinalConfig::default().crawl(CrawlConfig::with_workers(MEMORY_POOL)),
        );
        tracer.end(span);
        let span = tracer.begin("ChurnEngine::attach_matrix");
        let vantages = select_vantages(
            &engine.weighted(),
            &[],
            DEFAULT_TOP_COVERAGE,
            DEFAULT_CONTROLS,
            seed,
        );
        engine.attach_matrix(
            walker.resolver(),
            vantages,
            SpoofMatrixConfig::with_workers(MEMORY_POOL),
        );
        tracer.end(span);
        let simulator = ChurnSimulator::new(
            Arc::clone(&population.store),
            population.domains.clone(),
            ChurnConfig {
                rate: CHURN_RATE,
                seed,
                ..ChurnConfig::default()
            },
        );
        Churn {
            population,
            walker,
            engine,
            simulator,
            epoch: 0,
            recrawled_total: 0,
        }
    }

    /// The digest of the engine's folded reports and coverage, and
    /// whether it equals that of a from-scratch crawl of the zone as it
    /// is now.
    fn check_against_full_recompute(&self) -> (u64, bool) {
        let fresh = Walker::new(ZoneResolver::new(Arc::clone(&self.population.store)));
        let full = crawl(
            &fresh,
            &self.population.domains,
            CrawlConfig::with_workers(MEMORY_POOL),
        );
        let folded = crawl_digest(&self.engine.reports(), &self.engine.weighted());
        let recomputed = crawl_digest(&full.reports, &full.coverage.into_weighted());
        (folded, folded == recomputed)
    }
}

impl Workload for Churn {
    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Measured {
        let started = Instant::now();
        let mut calls = TimedCalls::default();
        let mut failed_ops = 0u64;
        let mut recrawled_since_check = 0u64;
        let mut state_digest = 0u64;
        loop {
            let span = tracer.begin("plan/apply/deliver");
            let batch = self.simulator.next_epoch();
            batch.apply(&self.population.store);
            // The zone is already mutated, so the delta only delivers
            // the invalidation set.
            self.engine.deliver(ZoneDelta::new(batch.domains(), || {}));
            tracer.end(span);
            self.epoch += 1;

            let span = tracer.begin("step");
            let now = MONTH * u32::try_from(self.epoch).unwrap_or(u32::MAX);
            let report = calls.time(|| self.engine.step(&self.walker, now), |r| r.recrawled);
            tracer.end(span);
            recrawled_since_check += report.recrawled;

            let last = started.elapsed() >= budget;
            if last || CHECK_EPOCHS.contains(&self.epoch) {
                let span = tracer.begin("check");
                let (digest, matches) = self.check_against_full_recompute();
                state_digest = digest;
                if !matches {
                    failed_ops += recrawled_since_check;
                }
                recrawled_since_check = 0;
                tracer.end(span);
            }
            if last {
                break;
            }
        }
        let recrawled: u64 = calls.samples.iter().map(|s| s.ops).sum();
        self.recrawled_total += recrawled;
        // A TTL-due epoch re-crawls more than the churned 1 % (doubled
        // for margin); a churn-only epoch cannot.
        let churn_only_limit = (self.population.domains.len() as f64 * CHURN_RATE * 2.0) as u64;
        let step_ms = |due: bool| {
            let walls: Vec<f64> = calls
                .samples
                .iter()
                .filter(|s| (s.ops > churn_only_limit) == due)
                .map(|s| s.wall.as_secs_f64() * 1e3)
                .collect();
            median(&walls).unwrap_or(0.0)
        };

        let span = tracer.begin("readout");
        let timed = Instant::now();
        let readout = (
            self.engine.reports().len(),
            self.engine.weighted().range_count(),
            self.engine.matrix().map(|m| m.domains),
        );
        let readout_ms = timed.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(readout);
        tracer.end(span);

        let last_stats = self.engine.last_crawl_stats();
        Measured {
            ops: recrawled,
            failed_ops,
            latency_us: calls.per_op_us(),
            samples: calls.samples.clone(),
            counts: vec![
                ("domains", self.population.domains.len() as u64),
                ("epochs", self.epoch),
                ("state_digest", state_digest),
                ("crawler.longitudinal.recrawled", self.recrawled_total),
            ],
            layers: vec![
                ("crawler.longitudinal.step_churn_only_ms", step_ms(false)),
                ("crawler.longitudinal.step_ttl_due_ms", step_ms(true)),
                ("crawler.longitudinal.readout_ms", readout_ms),
                (
                    "crawler.longitudinal.recrawled",
                    self.recrawled_total as f64,
                ),
                ("analyzer.cache.hit_rate", last_stats.cache_hit_rate()),
                (
                    "crawler.crawl.peak_queue_depth",
                    last_stats.peak_queue_depth as f64,
                ),
                ("crawler.crawl.batches", last_stats.batches as f64),
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
