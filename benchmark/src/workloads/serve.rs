//! `serve-hot` and `serve-cold`: the resident verdict service under a
//! receiver's steady state (compiled-table hits, repeated pairs) and
//! under a flood in which no `(ip, domain)` pair ever repeats. Closed
//! loop first (saturation throughput), then an open loop at a fixed
//! rate (latency from due time).

use std::sync::Arc;
use std::time::{Duration, Instant};

use spf_bench::build_resolver;
use spf_core::{check_host, EvalContext, EvalPolicy};
use spf_dns::Resolver;
use spf_service::proto::ResponseFrame;
use spf_service::{build_plan, QuerySpec, ServiceConfig, TrafficMix, VerdictService};
use spf_types::Backend;

use super::{SpoofLab, Workload};
use crate::gen::{Checker, Cursor, Generator, Plan, SAMPLE_EVERY};
use crate::host::{host_speed, spin_ms};
use crate::stats::LatencyRecorder;
use crate::trace::Tracer;
use crate::{
    Measured, ProbeWorld, Sample, Sizes, CLOSED_SHARE, OPEN_RATE, SERVICE_WORKERS, WINDOW,
};

/// Queries per open-loop segment (0.2 s at [`OPEN_RATE`]); a run's
/// `p50_us` is the median of the segments' medians.
const OPEN_SEGMENT: usize = 2_000;
/// Specs generated per `build_plan` call while a plan is assembled.
const PLAN_CHUNK: usize = 32_768;

/// One encoded plan, its position, and the specs of the sampled
/// queries (the rest are dropped once encoded).
struct Traffic {
    plan: Plan,
    cursor: Cursor,
    sampled: Vec<QuerySpec>,
}

impl Traffic {
    fn build(mix: TrafficMix, lab: &SpoofLab, queries: usize, seed: u64, wrap: bool) -> Traffic {
        let ips = lab.vantage_ips();
        let mut plan = Plan::default();
        let mut sampled = Vec::with_capacity(queries / SAMPLE_EVERY as usize + 1);
        // A cold chunk walks the domain list in order, so it must be at
        // least as long as the list to reach every domain.
        let chunk = PLAN_CHUNK.max(lab.world.domains.len());
        let mut chunk_seed = seed;
        while plan.len() < queries {
            let take = chunk.min(queries - plan.len());
            let specs = build_plan(mix, &lab.world.domains, &ips, take, chunk_seed);
            for (offset, spec) in specs.iter().enumerate() {
                if ((plan.len() + offset) as u64).is_multiple_of(SAMPLE_EVERY) {
                    sampled.push(spec.clone());
                }
            }
            plan.extend(&specs);
            chunk_seed = chunk_seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        }
        Traffic {
            plan,
            cursor: Cursor::new(wrap),
            sampled,
        }
    }

    /// Turn every sampled body that differs from bare `check_host` into
    /// a failure.
    fn verify(&self, checker: &mut Checker, resolver: &dyn Resolver) -> u64 {
        let policy = EvalPolicy::default();
        checker.verify_samples(|index| {
            let spec = &self.sampled[index / SAMPLE_EVERY as usize];
            let ctx = EvalContext::mail_from(spec.ip, &spec.sender_local, spec.domain.clone());
            let eval = check_host(resolver, &ctx, &spec.domain, &policy);
            ResponseFrame::verdict(index as u64, &eval).body
        })
    }
}

/// A set-up serve workload.
pub struct Serve {
    lab: SpoofLab,
    resolver: Arc<dyn Resolver>,
    service: VerdictService,
    generator: Generator,
    closed: Traffic,
    open: Traffic,
    slice_ops: u64,
}

impl Serve {
    /// `serve-hot`: `memory+compiled`, Zipf-skewed repeating plan,
    /// warmed by one untimed pass so every domain's tables exist.
    pub fn hot(seed: u64, sizes: &Sizes, tracer: &mut Tracer) -> Serve {
        let mut serve = Serve::setup(
            seed,
            sizes,
            "memory+compiled",
            TrafficMix::HotSkew,
            sizes.hot_plan,
            true,
            tracer,
        );
        let span = tracer.begin("warm-up pass");
        let mut once = Cursor::new(false);
        let mut checker = Checker::default();
        serve
            .generator
            .closed_loop(
                &serve.closed.plan,
                &mut once,
                WINDOW,
                u64::MAX,
                &mut checker,
                &mut Tracer::new(false),
            )
            .expect("warm-up pass over loopback");
        assert_eq!(checker.failed, 0, "warm-up queries must all answer ok");
        tracer.end(span);
        serve
    }

    /// `serve-cold`: `memory+cached` (memo only), a plan in which no
    /// pair repeats. Nothing to warm: every query is new by design.
    pub fn cold(seed: u64, sizes: &Sizes, tracer: &mut Tracer) -> Serve {
        Serve::setup(
            seed,
            sizes,
            "memory+cached",
            TrafficMix::ColdFlood,
            sizes.cold_plan,
            false,
            tracer,
        )
    }

    fn setup(
        seed: u64,
        sizes: &Sizes,
        backend: &str,
        mix: TrafficMix,
        closed_queries: usize,
        wrap: bool,
        tracer: &mut Tracer,
    ) -> Serve {
        let lab = SpoofLab::build(sizes.serve_scale, seed, tracer);
        let backend = Backend::parse(backend).expect("the serve backend string parses");
        let span = tracer.begin("build_resolver");
        let (resolver, _) = build_resolver(&lab.world.store, backend);
        tracer.end(span);
        let span = tracer.begin("VerdictService::spawn");
        let service = VerdictService::spawn(
            Arc::clone(&resolver),
            ServiceConfig::from_backend(backend, SERVICE_WORKERS),
        )
        .expect("service binds on loopback");
        tracer.end(span);
        let span = tracer.begin("build_plan");
        let closed = Traffic::build(mix, &lab, closed_queries, seed, wrap);
        let open = Traffic::build(mix, &lab, sizes.open_plan, seed ^ 0x6f70_656e, wrap);
        tracer.end(span);
        let generator = Generator::connect(service.addr()).expect("generator socket");
        Serve {
            lab,
            resolver,
            service,
            generator,
            closed,
            open,
            slice_ops: sizes.slice_ops,
        }
    }
}

impl Workload for Serve {
    fn measure(&mut self, budget: Duration, tracer: &mut Tracer) -> Measured {
        let before = self.service.telemetry();

        // Closed loop in slices of `slice_ops` queries, the window
        // drained and the host's speed read between slices.
        let span = tracer.begin("closed loop");
        let started = Instant::now();
        let closed_budget = budget.mul_f64(CLOSED_SHARE);
        let mut closed_checker = Checker::default();
        let mut samples = Vec::new();
        let mut spin_before = spin_ms();
        loop {
            let sent_before = closed_checker.sent;
            let (ok, wall, cpu) = self
                .generator
                .closed_loop(
                    &self.closed.plan,
                    &mut self.closed.cursor,
                    WINDOW,
                    self.slice_ops,
                    &mut closed_checker,
                    tracer,
                )
                .expect("closed loop over loopback");
            let spin_after = spin_ms();
            samples.push(Sample {
                ops: ok,
                wall,
                cpu,
                host_speed: host_speed(spin_before, spin_after),
            });
            spin_before = spin_after;
            let plan_ended = closed_checker.sent - sent_before < self.slice_ops;
            if plan_ended || started.elapsed() >= closed_budget {
                break;
            }
        }
        tracer.end(span);

        // Open loop in segments of `OPEN_SEGMENT` queries, each its own
        // latency window.
        let span = tracer.begin("open loop");
        let started = Instant::now();
        let open_budget = budget.mul_f64(1.0 - CLOSED_SHARE);
        let mut open_checker = Checker::default();
        let mut latency = LatencyRecorder::default();
        let mut late = LatencyRecorder::default();
        let mut latency_us = Vec::new();
        loop {
            let sent_before = open_checker.sent;
            let ledger = self
                .generator
                .open_loop(
                    &self.open.plan,
                    &mut self.open.cursor,
                    OPEN_RATE,
                    OPEN_SEGMENT,
                    &mut open_checker,
                    tracer,
                )
                .expect("open loop over loopback");
            let spin_after = spin_ms();
            if let Some(p50) = ledger.latency.sorted().quantile_us(0.5) {
                latency_us.push(p50 * host_speed(spin_before, spin_after));
            }
            spin_before = spin_after;
            latency.extend(&ledger.latency);
            late.extend(&ledger.late);
            let plan_ended = ((open_checker.sent - sent_before) as usize) < OPEN_SEGMENT;
            if plan_ended || started.elapsed() >= open_budget {
                break;
            }
        }
        tracer.end(span);

        let span = tracer.begin("check");
        let mismatched = self
            .closed
            .verify(&mut closed_checker, self.resolver.as_ref())
            + self.open.verify(&mut open_checker, self.resolver.as_ref());
        let sampled = (closed_checker.sampled() + open_checker.sampled()) as u64;
        tracer.end(span);

        let after = self.service.telemetry();
        let latency = latency.sorted();
        let late = late.sorted();
        let compiled = after.compiled.unwrap_or_default();
        let compiled_before = before.compiled.unwrap_or_default();
        let table_verdicts = compiled.compiled_verdicts - compiled_before.compiled_verdicts;
        let fallback_verdicts = compiled.fallback_verdicts - compiled_before.fallback_verdicts;
        let memo = after.cache.unwrap_or_default();
        let memo_before = before.cache.unwrap_or_default();
        let memo_probes = memo.probes() - memo_before.probes();
        let share = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        Measured {
            ops: closed_checker.sent + open_checker.sent,
            failed_ops: closed_checker.failed + open_checker.failed,
            samples,
            latency_us,
            counts: vec![
                ("domains", self.lab.world.domains.len() as u64),
                ("plan_digest", self.closed.plan.digest()),
                ("open_plan_digest", self.open.plan.digest()),
                ("open_queries", open_checker.sent),
                ("sampled_bodies", sampled),
                ("mismatched_bodies", mismatched),
            ],
            layers: vec![
                (
                    "service.rtt.p99_us",
                    latency.quantile_us(0.99).unwrap_or(0.0),
                ),
                (
                    "service.rtt.p999_us",
                    latency.quantile_us(0.999).unwrap_or(0.0),
                ),
                ("service.internal.p50_us", after.latency.p50_us),
                (
                    "service.compiled.hit_share",
                    share(table_verdicts, table_verdicts + fallback_verdicts),
                ),
                (
                    "service.cache.hit_rate",
                    share(memo.hits - memo_before.hits, memo_probes),
                ),
                ("service.queue.peak_depth", after.peak_queue_depth as f64),
                (
                    "service.shed",
                    (after.overloaded - before.overloaded) as f64,
                ),
                ("gen.late_p99_us", late.quantile_us(0.99).unwrap_or(0.0)),
                ("gen.late_max_us", late.max_us().unwrap_or(0.0)),
            ],
        }
    }

    fn probe_world(&self) -> ProbeWorld {
        ProbeWorld {
            store: Arc::clone(&self.lab.world.store),
            domains: self.lab.world.domains.clone(),
            ips: self.lab.vantage_ips(),
        }
    }
}
