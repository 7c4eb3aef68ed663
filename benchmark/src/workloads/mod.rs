//! The seven workloads. Each has a `setup` (world generation, the
//! reference for the output check, spawn, warm-up — everything
//! `setup_s` times) and a `measure` that can be called repeatedly and
//! continues where the last call stopped.

pub mod churn;
pub mod crawl;
pub mod matrix;
pub mod serve;

use std::net::IpAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spf_analyzer::Walker;
use spf_crawler::{
    crawl as run_crawl, select_vantages, CrawlConfig, ProviderVantage, VantagePoint,
    DEFAULT_CONTROLS, DEFAULT_TOP_COVERAGE,
};
use spf_dns::ZoneResolver;
use spf_netsim::{build_spoof_world, Scale, SpoofWorld};

use crate::host::{host_speed, spin_ms, ProcUsage};
use crate::trace::Tracer;
use crate::{Measured, ProbeWorld, Sample, Sizes, MEMORY_POOL};

/// The workload names, in the order they are run and documented.
pub const NAMES: [&str; 7] = [
    "crawl-memory",
    "crawl-wire",
    "matrix-cached",
    "matrix-compiled",
    "serve-hot",
    "serve-cold",
    "churn-epochs",
];

/// A set-up workload.
pub trait Workload {
    /// Run timed operations for about `budget`, check their outputs
    /// outside the timed calls, and report.
    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Measured;

    /// The inputs the per-layer probes run on.
    fn probe_world(&self) -> ProbeWorld;
}

/// Set `name` up from `seed`. `None` for an unknown name.
pub fn setup(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    tracer: &mut Tracer,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "crawl-memory" => Box::new(crawl::Crawl::memory(seed, sizes, tracer)),
        "crawl-wire" => Box::new(crawl::Crawl::wire(seed, sizes, tracer)),
        "matrix-cached" => Box::new(matrix::Matrix::setup(seed, sizes, false, tracer)),
        "matrix-compiled" => Box::new(matrix::Matrix::setup(seed, sizes, true, tracer)),
        "serve-hot" => Box::new(serve::Serve::hot(seed, sizes, tracer)),
        "serve-cold" => Box::new(serve::Serve::cold(seed, sizes, tracer)),
        "churn-epochs" => Box::new(churn::Churn::setup(seed, sizes, tracer)),
        _ => return None,
    })
}

/// The spoof world plus the vantage set the default `repro
/// spoof-matrix` path selects over it: one coverage crawl, then the
/// top-coverage, provider and control addresses.
pub struct SpoofLab {
    /// The population + hosting world.
    pub world: SpoofWorld,
    /// The selected vantages, shared-coverage first.
    pub vantages: Vec<VantagePoint>,
}

impl SpoofLab {
    /// Build the lab at `1:denominator` from `seed`.
    pub fn build(denominator: u64, seed: u64, tracer: &mut Tracer) -> SpoofLab {
        let span = tracer.begin("build_spoof_world");
        let world = build_spoof_world(Scale { denominator }, seed);
        tracer.end(span);
        let span = tracer.begin("select_vantages");
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&world.store)));
        let output = run_crawl(
            &walker,
            &world.domains,
            CrawlConfig::with_workers(MEMORY_POOL),
        );
        let providers: Vec<ProviderVantage> = world
            .providers
            .iter()
            .map(|p| ProviderVantage {
                label: format!("hosting{}", p.id),
                web: p.web_ip,
                mta: p.mta_ip,
            })
            .collect();
        let vantages = select_vantages(
            &output.coverage.into_weighted(),
            &providers,
            DEFAULT_TOP_COVERAGE,
            DEFAULT_CONTROLS,
            seed,
        );
        tracer.end(span);
        SpoofLab { world, vantages }
    }

    /// The vantage addresses, in vantage order.
    pub fn vantage_ips(&self) -> Vec<IpAddr> {
        self.vantages.iter().map(|v| IpAddr::V4(v.ip)).collect()
    }
}

/// The timed calls of a batch workload, one [`Sample`] each.
#[derive(Default)]
pub(crate) struct TimedCalls {
    pub samples: Vec<Sample>,
}

impl TimedCalls {
    /// Run and time one call between two host-speed readings; `ops`
    /// says how many operations its output amounts to.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T, ops: impl FnOnce(&T) -> u64) -> T {
        let spin_before = spin_ms();
        let usage_before = ProcUsage::now();
        let started = Instant::now();
        let output = call();
        let wall = started.elapsed();
        let cpu = ProcUsage::now().since(&usage_before);
        self.samples.push(Sample {
            ops: ops(&output),
            wall,
            cpu,
            host_speed: host_speed(spin_before, spin_ms()),
        });
        output
    }

    /// Per-sample latency of one operation, microseconds.
    pub fn per_op_us(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ops > 0)
            .map(Sample::per_op_us)
            .collect()
    }
}
