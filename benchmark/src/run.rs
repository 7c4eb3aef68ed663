//! One benchmark run: parse the contract's arguments, set the workload
//! up, measure, check, and print the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::host::{host_speed, peak_rss_mib, reset_peak_rss, spin_ms, HostProbe};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, NAMES};
use crate::{json, probes, Measured, Sizes, DEFAULT_SEED, MEMORY_POOL};

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 10;

/// Times an untraced run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// `(name, unit, better, bound)` of every end-to-end metric, in the
/// order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("p50_us", "us", "lower", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of every per-layer metric a traced run
/// prints. A layer that did no work in a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 73] = [
    ("netsim.population.build_s", "s", "lower"),
    ("netsim.spoofworld.build_s", "s", "lower"),
    ("types.coverage.add_set_ns", "ns", "lower"),
    ("types.coverage.remove_set_ns", "ns", "lower"),
    ("types.coverage.sweep_ms", "ms", "lower"),
    ("dns.zone.query_ns", "ns", "lower"),
    ("dns.wire.encode_ns", "ns", "lower"),
    ("dns.wire.decode_ns", "ns", "lower"),
    ("dns.fleet.lookup_us", "us", "lower"),
    ("dns.fleet.cached_ns", "ns", "lower"),
    ("dns.fleet.amplification", "1/op", "lower"),
    ("dns.fleet.cache_hit_rate", "ratio", "higher"),
    ("dns.fleet.coalesce_rate", "ratio", "higher"),
    ("dns.fleet.retries", "count", "lower"),
    ("dns.fleet.temp_errors", "count", "lower"),
    ("dns.fleet.tcp_fallbacks", "count", "lower"),
    ("dns.fleet.domains_per_s", "1/s", "higher"),
    ("dns.reactor.lookup_us", "us", "lower"),
    ("dns.reactor.domains_per_s", "1/s", "higher"),
    ("core.parse.record_ns", "ns", "lower"),
    ("core.eval.check_host_us", "us", "lower"),
    ("core.eval.cached_us", "us", "lower"),
    ("core.compile.policy_us", "us", "lower"),
    ("core.compile.verdict_ns", "ns", "lower"),
    ("core.compile.full_fraction", "ratio", "higher"),
    ("core.compile.fallback_share", "ratio", "lower"),
    ("core.auth.dmarc_us", "us", "lower"),
    ("core.auth.compose_ns", "ns", "lower"),
    ("analyzer.walker.analyze_us", "us", "lower"),
    ("analyzer.walker.hit_ns", "ns", "lower"),
    ("analyzer.cache.hit_rate", "ratio", "higher"),
    ("crawler.crawl.serial_domains_per_s", "1/s", "higher"),
    ("crawler.crawl.pool_efficiency", "ratio", "higher"),
    ("crawler.crawl.peak_queue_depth", "count", "lower"),
    ("crawler.crawl.batches", "count", "lower"),
    ("crawler.spoof.row_us", "us", "lower"),
    ("crawler.spoof.cache_hit_rate", "ratio", "higher"),
    ("crawler.longitudinal.step_churn_only_ms", "ms", "lower"),
    ("crawler.longitudinal.step_ttl_due_ms", "ms", "lower"),
    ("crawler.longitudinal.readout_ms", "ms", "lower"),
    ("crawler.longitudinal.recrawled", "count", "lower"),
    ("service.proto.encode_query_ns", "ns", "lower"),
    ("service.proto.decode_query_ns", "ns", "lower"),
    ("service.proto.encode_response_ns", "ns", "lower"),
    ("service.proto.decode_response_ns", "ns", "lower"),
    ("service.cache.hit_ns", "ns", "lower"),
    ("service.cache.miss_ns", "ns", "lower"),
    ("service.cache.insert_ns", "ns", "lower"),
    ("service.cache.insert_evict_ns", "ns", "lower"),
    ("service.cache.hit_rate", "ratio", "higher"),
    ("service.rtt.udp_us", "us", "lower"),
    ("service.rtt.tcp_us", "us", "lower"),
    ("service.rtt.p99_us", "us", "lower"),
    ("service.rtt.p999_us", "us", "lower"),
    ("service.internal.p50_us", "us", "lower"),
    ("service.compiled.hit_share", "ratio", "higher"),
    ("service.queue.peak_depth", "count", "lower"),
    ("service.shed", "count", "lower"),
    ("gen.late_p99_us", "us", "lower"),
    ("gen.late_max_us", "us", "lower"),
    ("proc.sys_share", "ratio", "lower"),
    ("proc.ctx_switches_per_op", "1/op", "lower"),
    ("host.spin_ms", "ms", "lower"),
    ("host.wakeup_us", "us", "lower"),
    ("host.spin_ms_after", "ms", "lower"),
    ("host.wakeup_us_after", "us", "lower"),
    ("host.disturbed", "count", "lower"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.dropped_spans", "count", "lower"),
];

/// One line of reason per workload, as `BENCHMARK.json` records it.
pub const WHY: [(&str, &str); 7] = [
    ("crawl-memory", "The paper's scan with the network removed: walker, parser, crawl dispatch and coverage fold do all the work; fleet, service and compiler none."),
    ("crawl-wire", "Same walker over loopback UDP: wire codec, fleet cache/coalescing/retries and the kernel dominate, so a walker optimisation predicts no change here."),
    ("matrix-cached", "The default spoof-matrix path: check_host_cached, the matrix verdict cache and the auth stack; the compiler does nothing."),
    ("matrix-compiled", "Same cells through compiled tables with compile time included: pairs with matrix-cached to show the compiler's break-even."),
    ("serve-hot", "Receiver steady state: compiled-table hits, so per-query cost is proto framing and listener-queue-worker-socket hops, not evaluation."),
    ("serve-cold", "Same service, no (ip, domain) pair repeats: every query misses the memo, inserts, and runs core::eval; taxes on the miss path show here."),
    ("churn-epochs", "The longitudinal path: TTL wheel, delta folds, walker invalidation and matrix rows over churn-only and TTL-due epochs."),
];

/// The arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => parsed.workload = value,
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; one of {}",
                    NAMES.join(", ")
                ))
            }
            "--seed" => {
                parsed.seed = parse_seed(&value).ok_or_else(|| format!("bad seed {value:?}"))?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err(format!(
            "--workload is required; one of {}",
            NAMES.join(", ")
        ));
    }
    Ok(parsed)
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed and every metric is a positive finite number.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// Exact counts, for the determinism check.
    pub counts: Vec<(&'static str, u64)>,
    /// Whether the host probes moved by more than 25 % across the run.
    pub disturbed: bool,
    /// Human-readable notes (sample counts, host probes).
    pub notes: Vec<String>,
}

impl Report {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(*value),
                json::string(unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit, then the counts and notes.
    pub fn table(&self, args: &Args) -> String {
        let mut out = format!(
            "== {} seed={:#x} seconds={} trace={} ==\n",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<42} {value:>16.4} {unit}");
        }
        let _ = writeln!(
            out,
            "  ops={} failed_ops={} correct={}{}",
            self.attempted,
            self.failed,
            self.correct,
            if self.disturbed { "  DISTURBED" } else { "" }
        );
        for (name, count) in &self.counts {
            let _ = writeln!(out, "  count {name} = {count}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note  {note}");
        }
        out
    }
}

/// The untraced run: set up [`SETUP_REPEATS`] times, measure once for
/// `args.seconds`, report the end-to-end metrics.
pub fn run_plain(args: &Args, sizes: &Sizes) -> Report {
    let host_before = HostProbe::take();
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous instance down first: its threads and memory
        // must not be charged to the next set-up.
        drop(workload.take());
        let spin_before = spin_ms();
        let started = Instant::now();
        workload = workloads::setup(&args.workload, args.seed, sizes, &mut tracer);
        let wall = started.elapsed().as_secs_f64();
        setups.push(wall * host_speed(spin_before, spin_ms()));
    }
    let mut workload = workload.expect("parse_args admits only known workloads");
    let peak_is_the_workloads = reset_peak_rss();
    let measured = workload.measure(Duration::from_secs_f64(args.seconds), &mut tracer);
    let peak_rss = peak_rss_mib();
    drop(workload);
    let host_after = HostProbe::take();

    let values = [
        measured.ops_per_s(),
        measured.p50_us(),
        measured.cpu_us_per_op(),
        peak_rss,
        median(&setups).expect("SETUP_REPEATS > 0"),
    ];
    let (raw_rate, speed) = measured.raw();
    finish(
        measured.clone(),
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _, _), value)| (name.to_string(), value, unit.to_string()))
            .collect(),
        true,
        host_before,
        host_after,
        vec![
            format!(
                "medians of {} samples ({} latency windows) scaled to the reference host \
                 speed; as the wall clock saw it: ops_per_s {raw_rate:.1} at host speed {speed:.3}",
                measured.samples.len(),
                measured.latency_us.len()
            ),
            format!("setup_s: median of {setups:?}"),
            format!(
                "peak_rss_mb: high-water mark {}",
                if peak_is_the_workloads {
                    "restarted after set-up"
                } else {
                    "of the whole process (/proc/self/clear_refs refused)"
                }
            ),
            format!(
                "per-sample (raw k ops/s, host speed), in order: {:?}",
                measured
                    .samples
                    .iter()
                    .filter(|s| s.ops > 0)
                    .map(|s| (
                        (s.raw_rate() / 100.0).round() / 10.0,
                        (s.host_speed * 100.0).round() / 100.0
                    ))
                    .collect::<Vec<(f64, f64)>>()
            ),
            format!(
                "per-window latencies, us, in order: {:?}",
                measured
                    .latency_us
                    .iter()
                    .map(|us| (us * 100.0).round() / 100.0)
                    .collect::<Vec<f64>>()
            ),
        ],
    )
}

/// Fold a later segment of the same mode into an earlier one: counts
/// and samples add, the program's counters are the later reading.
fn fold(mut earlier: Measured, later: Measured) -> Measured {
    earlier.samples.extend(&later.samples);
    earlier.latency_us.extend(&later.latency_us);
    Measured {
        ops: earlier.ops + later.ops,
        failed_ops: earlier.failed_ops + later.failed_ops,
        samples: earlier.samples,
        latency_us: earlier.latency_us,
        ..later
    }
}

/// The traced run: set up once under spans; spend half of
/// `args.seconds` measuring in four segments — traced, untraced,
/// untraced, traced, so neither mode owns the cold start — whose rate
/// ratio is the tracing overhead; spend the other half on the
/// per-layer probes; write the span file.
pub fn run_traced(args: &Args, sizes: &Sizes, out_dir: &std::path::Path) -> Report {
    let host_before = HostProbe::take();
    let mut tracer = Tracer::new(true);
    let mut workload = workloads::setup(&args.workload, args.seed, sizes, &mut tracer)
        .expect("parse_args admits only known workloads");
    let segment = Duration::from_secs_f64(args.seconds / 8.0);
    let mut by_mode: [Option<Measured>; 2] = [None, None];
    for traced in [true, false, false, true] {
        tracer.set_enabled(traced);
        let span = tracer.begin("measure");
        let measured = workload.measure(segment, &mut tracer);
        tracer.end(span);
        let slot = &mut by_mode[usize::from(traced)];
        *slot = Some(match slot.take() {
            Some(earlier) => fold(earlier, measured),
            None => measured,
        });
    }
    tracer.set_enabled(true);
    let [Some(untraced), Some(traced)] = by_mode else {
        unreachable!("both modes ran twice");
    };
    let world = workload.probe_world();
    drop(workload);
    let span = tracer.begin("probes");
    let readings = probes::run(&world, sizes, segment * 4, &mut tracer);
    tracer.end(span);
    let host_after = HostProbe::take();

    let layer = |name: &str| -> f64 {
        readings
            .iter()
            .chain(&traced.layers)
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let span_s = |name: &str| {
        tracer
            .spans()
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    };
    let all = fold(untraced.clone(), traced.clone());
    let (cpu, cpu_ops) = all.cpu_total();
    let cpu_ops = cpu_ops.max(1) as f64;
    let cpu_per_op_us = all.cpu_us_per_op();
    let attributed_us = attributed_cpu_us(&args.workload, &layer, &world);
    let pool_efficiency = if args.workload.starts_with("crawl-") {
        ratio(
            untraced.ops_per_s(),
            layer("crawler.crawl.serial_domains_per_s") * MEMORY_POOL as f64,
        )
    } else {
        0.0
    };
    let derived: Vec<(&str, f64)> = vec![
        ("netsim.population.build_s", span_s("Population::build")),
        ("netsim.spoofworld.build_s", span_s("build_spoof_world")),
        ("crawler.crawl.pool_efficiency", pool_efficiency),
        ("proc.sys_share", cpu.sys_share()),
        (
            "proc.ctx_switches_per_op",
            cpu.ctx_switches as f64 / cpu_ops,
        ),
        ("host.spin_ms", host_before.spin_ms),
        ("host.wakeup_us", host_before.wakeup_us),
        ("host.spin_ms_after", host_after.spin_ms),
        ("host.wakeup_us_after", host_after.wakeup_us),
        (
            "host.disturbed",
            f64::from(host_before.disturbed(&host_after)),
        ),
        ("trace.ops_per_s_untraced", untraced.ops_per_s()),
        ("trace.ops_per_s_traced", traced.ops_per_s()),
        (
            "trace.overhead_share",
            1.0 - ratio(traced.ops_per_s(), untraced.ops_per_s()),
        ),
        (
            "trace.unattributed_share",
            1.0 - ratio(attributed_us, cpu_per_op_us),
        ),
        ("trace.spans", tracer.spans().len() as f64),
        ("trace.dropped_spans", tracer.dropped() as f64),
    ];
    let metrics: Vec<(String, f64, String)> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let value = derived
                .iter()
                .find(|(n, _)| n == name)
                .map_or_else(|| layer(name), |(_, v)| *v);
            (name.to_string(), value, unit.to_string())
        })
        .collect();

    let mut notes = vec![format!(
        "cpu per op {cpu_per_op_us:.4} us, of which the probes attribute {attributed_us:.4} us"
    )];
    let path = out_dir.join(format!("trace-{}.json", args.workload));
    match std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(&args.workload, args.seed, &metrics)))
    {
        Ok(()) => notes.push(format!(
            "spans and probe table written to {}",
            path.display()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    finish(all, metrics, false, host_before, host_after, notes)
}

/// `part / whole`, or 1 when there is no whole to take a share of (a
/// segment that ran out of plan before its first slice).
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        1.0
    }
}

/// Σ(probe cost × calls per operation) for `workload`, in CPU
/// microseconds per operation: what the outside-in probes can explain
/// of the end-to-end cost. The rest — dispatch, channels, syscalls,
/// wake-ups — is what only spans inside the program can attribute.
fn attributed_cpu_us(
    workload: &str,
    layer: &impl Fn(&str) -> f64,
    world: &crate::ProbeWorld,
) -> f64 {
    let vantages = world.ips.len().max(1) as f64;
    let proto_us = (layer("service.proto.encode_query_ns")
        + layer("service.proto.decode_query_ns")
        + layer("service.proto.encode_response_ns")
        + layer("service.proto.decode_response_ns"))
        / 1e3;
    match workload {
        // Per domain: one analysis (its parses and zone queries inside
        // it) and one coverage fold.
        "crawl-memory" => {
            layer("analyzer.walker.analyze_us") + layer("types.coverage.add_set_ns") / 1e3
        }
        // Per domain: the analysis, plus a blocking round trip per
        // datagram it causes. The analysis probe ran in memory, so the
        // two do not overlap.
        "crawl-wire" => {
            layer("analyzer.walker.analyze_us")
                + layer("dns.fleet.amplification") * layer("dns.fleet.lookup_us")
        }
        // Per cell: the row probe already spans all vantages.
        "matrix-cached" => layer("crawler.spoof.row_us") / vantages,
        "matrix-compiled" => {
            (layer("core.compile.policy_us") + layer("core.auth.dmarc_us")) / vantages
                + (layer("core.compile.verdict_ns") + layer("core.auth.compose_ns")) / 1e3
        }
        // Per query: the four codec directions and the table lookup…
        "serve-hot" => {
            proto_us + (layer("core.compile.verdict_ns") + layer("service.cache.hit_ns")) / 1e3
        }
        // …or the evaluation with its memo miss and insert.
        "serve-cold" => {
            proto_us
                + layer("core.eval.check_host_us")
                + (layer("service.cache.miss_ns") + layer("service.cache.insert_ns")) / 1e3
        }
        // Per re-crawled domain: fold out, re-analyze, fold in, new row.
        "churn-epochs" => {
            layer("analyzer.walker.analyze_us")
                + layer("crawler.spoof.row_us")
                + (layer("types.coverage.remove_set_ns") + layer("types.coverage.add_set_ns")) / 1e3
        }
        _ => 0.0,
    }
}

fn finish(
    measured: Measured,
    metrics: Vec<(String, f64, String)>,
    must_be_positive: bool,
    host_before: HostProbe,
    host_after: HostProbe,
    mut notes: Vec<String>,
) -> Report {
    let sane = metrics
        .iter()
        .all(|(_, value, _)| value.is_finite() && (!must_be_positive || *value > 0.0));
    notes.push(format!(
        "host before: spin {:.3} ms, wake-up {:.1} us; after: spin {:.3} ms, wake-up {:.1} us",
        host_before.spin_ms, host_before.wakeup_us, host_after.spin_ms, host_after.wakeup_us
    ));
    Report {
        correct: sane && measured.failed_ops == 0 && measured.ops > 0,
        attempted: measured.ops.max(1),
        failed: measured.failed_ops,
        metrics,
        counts: measured.counts,
        disturbed: host_before.disturbed(&host_after),
        notes,
    }
}

/// The `BENCHMARK.json` this code implements, generated from the
/// tables above so the two cannot drift (a test compares the file).
pub fn benchmark_json(run_seconds: u32) -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WHY.iter().enumerate() {
        let comma = if i + 1 < WHY.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json::string(name),
            json::string(why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}{comma}",
            json::string(name),
            json::string(unit),
            json::string(better)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json::string(name),
            json::string(unit),
            json::string(better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}
