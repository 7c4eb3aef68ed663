//! The repo's benchmark (ISSUE 12, `BENCHMARK.json`): seven workloads
//! over the four request paths — crawl domain, matrix cell, service
//! query, churn epoch — each run in its own process, every layer timed
//! from outside by calling the program's public functions. See
//! `README.md` in this directory for the workload and metric tables.

#![warn(missing_docs)]

pub mod check;
pub mod gen;
pub mod host;
pub mod json;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::sync::Arc;

use spf_dns::ZoneStore;
use spf_types::DomainName;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5bf1_2023;

/// Worker threads of every memory-backed crawl, matrix and churn pool.
/// A constant, not `nproc`: the benchmark host has two cores and the
/// numbers must mean the same thing on a larger one.
pub const MEMORY_POOL: usize = 2;
/// Worker threads of the verdict service.
pub const SERVICE_WORKERS: usize = 2;
/// Crawl workers over the wire: blocking lookups need more workers than
/// cores to overlap their waits. This pool is the program's, not the
/// generator's.
pub const WIRE_WORKERS: usize = 8;
/// The wire crawl's backend: the blocking engine over two fleet servers.
pub const WIRE_BACKEND: &str = "wire:2";
/// The reactor engine over the same fleet shape (probe only).
pub const REACTOR_BACKEND: &str = "wire-async:2";
/// The one CPU the whole benchmark process is pinned to. Two reasons
/// (measurements in `README.md`): the guest's two cores change speed
/// independently, so a reference loop on one says nothing about work on
/// the other; and five busy threads on two cores drift between
/// placements that differ by 40 % in throughput. On one core a run
/// measures CPU per operation, hand-offs included.
pub const BENCH_CPU: u32 = 0;
/// Closed-loop queries outstanding.
pub const WINDOW: usize = 32;
/// Open-loop offered rate, queries per second: about a tenth of the
/// hot capacity and a fifth of the cold one on the 2-core host.
pub const OPEN_RATE: f64 = 10_000.0;
/// Share of a serve run's measured seconds spent in the closed loop;
/// the open loop gets the rest.
pub const CLOSED_SHARE: f64 = 0.6;

/// How much work each workload is given. [`Sizes::FULL`] is what the
/// benchmark measures; [`Sizes::TINY`] is the constant table the smoke
/// and determinism tests run every workload function on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `crawl-memory` population scale denominator.
    pub crawl_memory_scale: u64,
    /// `crawl-wire` population scale denominator.
    pub crawl_wire_scale: u64,
    /// Spoof-world scale denominator of both matrix workloads.
    pub matrix_scale: u64,
    /// Spoof-world scale denominator of both serve workloads.
    pub serve_scale: u64,
    /// `churn-epochs` population scale denominator.
    pub churn_scale: u64,
    /// Queries in the hot plan (it repeats).
    pub hot_plan: usize,
    /// Queries in the cold closed-loop plan (it never repeats, so it
    /// bounds the phase).
    pub cold_plan: usize,
    /// Queries in the open-loop plan (bounds the open phase of a cold
    /// run the same way).
    pub open_plan: usize,
    /// `ok` answers per closed-loop throughput slice.
    pub slice_ops: u64,
    /// Domains the heavier per-layer probes are run on.
    pub probe_domains: usize,
}

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        crawl_memory_scale: 200,
        crawl_wire_scale: 500,
        matrix_scale: 1_000,
        serve_scale: 1_000,
        churn_scale: 500,
        hot_plan: 24 * 4096,
        cold_plan: 144 * 4096,
        open_plan: 16 * 4096,
        slice_ops: 20_000,
        probe_domains: 2_000,
    };

    /// A few hundred domains and a few thousand queries.
    pub const TINY: Sizes = Sizes {
        crawl_memory_scale: 20_000,
        crawl_wire_scale: 20_000,
        matrix_scale: 20_000,
        serve_scale: 20_000,
        churn_scale: 20_000,
        hot_plan: 4096,
        cold_plan: 2 * 4096,
        open_plan: 4 * 4096,
        slice_ops: 500,
        probe_domains: 200,
    };
}

/// One timed unit of a workload: a `crawl()` or `auth_matrix()` call,
/// a `step()`, or a closed-loop slice.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operations the unit completed.
    pub ops: u64,
    /// Its wall time.
    pub wall: std::time::Duration,
    /// The process's CPU time and context switches across it.
    pub cpu: host::ProcUsage,
    /// [`host::host_speed`] from the spin readings taken just before
    /// and just after it.
    pub host_speed: f64,
}

impl Sample {
    /// Operations per second, as the wall clock saw it.
    pub fn raw_rate(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    /// Operations per second at the reference host speed.
    pub fn rate(&self) -> f64 {
        self.raw_rate() / self.host_speed
    }

    /// Wall microseconds per operation at the reference host speed.
    pub fn per_op_us(&self) -> f64 {
        self.wall.as_secs_f64() * 1e6 / self.ops as f64 * self.host_speed
    }

    /// CPU microseconds (user + kernel, every thread of the process)
    /// per operation at the reference host speed.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu.cpu_s() * 1e6 / self.ops as f64 * self.host_speed
    }
}

/// What one call of a workload's `measure` reports.
///
/// The benchmark host is a 2-vCPU guest whose cores drift by ±8 % over
/// minutes and drop to about two thirds of their speed for seconds at
/// a time (`README.md` has the traces), and every timing of this
/// CPU-bound program follows. So each sample is bracketed by two
/// readings of a reference loop and scaled to the reference speed, and
/// a metric is the median of its scaled samples: what the program
/// would have done on an undisturbed core, which is the part a code
/// change can move.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Operations attempted (domains crawled, cells, queries sent,
    /// domains re-crawled).
    pub ops: u64,
    /// … of which failed an output check, were lost, shed or timed out.
    pub failed_ops: u64,
    /// The timed units. Output checks, set-up between iterations and
    /// the open loop's polling are outside every sample.
    pub samples: Vec<Sample>,
    /// Latency of one operation in microseconds at the reference host
    /// speed, one value per window: the median due-time → reply latency
    /// of each open-loop segment for the serve workloads; wall time ÷
    /// operations of each sample for the batch calls, which expose no
    /// per-item latency.
    pub latency_us: Vec<f64>,
    /// Exact counts that must repeat for a given seed and amount of
    /// work (digests, cells, datagram numerators).
    pub counts: Vec<(&'static str, u64)>,
    /// Per-layer numbers only the workload itself can read: the
    /// program's own counters after the run.
    pub layers: Vec<(&'static str, f64)>,
}

impl Measured {
    fn median_of(&self, value: impl Fn(&Sample) -> f64) -> f64 {
        let values: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ops > 0)
            .map(value)
            .collect();
        stats::median(&values).unwrap_or(0.0)
    }

    /// Median operation rate at the reference host speed.
    pub fn ops_per_s(&self) -> f64 {
        self.median_of(Sample::rate)
    }

    /// Median of the per-window latencies.
    pub fn p50_us(&self) -> f64 {
        stats::median(&self.latency_us).unwrap_or(0.0)
    }

    /// Median CPU microseconds per operation at the reference speed.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.median_of(Sample::cpu_us_per_op)
    }

    /// Median operation rate as the wall clock saw it, and the median
    /// host speed of the samples, for the notes.
    pub fn raw(&self) -> (f64, f64) {
        (
            self.median_of(Sample::raw_rate),
            self.median_of(|s| s.host_speed),
        )
    }

    /// CPU use summed over the samples, and the operations it bought.
    pub fn cpu_total(&self) -> (host::ProcUsage, u64) {
        let mut cpu = host::ProcUsage::default();
        for sample in &self.samples {
            cpu.add(&sample.cpu);
        }
        (cpu, self.samples.iter().map(|s| s.ops).sum())
    }
}

/// The inputs every per-layer probe is run on: the workload's own zone
/// and domain list.
#[derive(Clone)]
pub struct ProbeWorld {
    /// The workload's zone data.
    pub store: Arc<ZoneStore>,
    /// The workload's domains, rank order.
    pub domains: Vec<DomainName>,
    /// Addresses the workload evaluates from.
    pub ips: Vec<std::net::IpAddr>,
}
