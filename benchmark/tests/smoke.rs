//! Every workload function on the tiny constant table: a smoke test of
//! the whole run path, the determinism contract, and the agreement
//! between the code's metric tables and `BENCHMARK.json`.

use std::path::Path;
use std::time::Duration;

use spf_benchmark::run::{
    benchmark_json, parse_args, run_plain, run_traced, Args, END_TO_END, PER_LAYER, RUN_SECONDS,
    WHY,
};
use spf_benchmark::trace::Tracer;
use spf_benchmark::workloads::{setup, NAMES};
use spf_benchmark::{Sizes, DEFAULT_SEED};

fn args(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        seconds: 0.4,
        trace,
    }
}

#[test]
fn every_workload_runs_correct_and_reports_every_end_to_end_metric() {
    for name in NAMES {
        let report = run_plain(&args(name, false), &Sizes::TINY);
        assert!(report.correct, "{name}: {report:?}");
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted >= 1, "{name}");
        let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, ..)| *n).collect();
        assert_eq!(names, expected, "{name}");
        for (metric, value, _) in &report.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{name} {metric} = {value}"
            );
        }
        let line = report.result_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(!line.contains('\n'));
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_its_spans() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace");
    for name in ["crawl-wire", "serve-cold", "churn-epochs"] {
        let report = run_traced(&args(name, true), &Sizes::TINY, &out);
        assert!(report.correct, "{name}: {report:?}");
        let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, ..)| *n).collect();
        assert_eq!(names, expected, "{name}");
        let value = |metric: &str| {
            report
                .metrics
                .iter()
                .find(|(n, _, _)| n == metric)
                .map(|(_, v, _)| *v)
                .unwrap()
        };
        // The layer the workload exists for did work; a layer it
        // bypasses did none.
        match name {
            "crawl-wire" => {
                assert!(value("dns.fleet.amplification") > 1.0);
                assert_eq!(value("service.shed"), 0.0);
                assert_eq!(value("crawler.longitudinal.recrawled"), 0.0);
            }
            "serve-cold" => {
                assert!(value("service.rtt.p99_us") > 0.0);
                assert_eq!(value("service.compiled.hit_share"), 0.0);
                assert_eq!(value("dns.fleet.amplification"), 0.0);
            }
            _ => {
                assert!(value("crawler.longitudinal.recrawled") > 0.0);
                assert_eq!(value("dns.fleet.amplification"), 0.0);
            }
        }
        // Probes ran on this world whatever the workload.
        for probe in [
            "core.parse.record_ns",
            "core.eval.check_host_us",
            "dns.wire.decode_ns",
            "service.proto.decode_query_ns",
            "service.cache.insert_evict_ns",
            "service.rtt.udp_us",
            "dns.fleet.lookup_us",
        ] {
            assert!(value(probe) > 0.0, "{name} {probe}");
        }
        let text = std::fs::read_to_string(out.join(format!("trace-{name}.json"))).unwrap();
        assert!(text.contains("\"spans\":[{\"name\":"), "{name}");
        assert!(text.contains("\"trace.unattributed_share\""), "{name}");
    }
}

/// One unit of work per workload (a zero budget still runs one
/// iteration), so every count is a function of the seed alone.
fn counts(name: &str, seed: u64) -> (u64, Vec<(&'static str, u64)>) {
    let mut tracer = Tracer::new(false);
    let mut workload = setup(name, seed, &Sizes::TINY, &mut tracer).unwrap();
    let measured = workload.measure(Duration::ZERO, &mut tracer);
    assert_eq!(measured.failed_ops, 0, "{name} seed {seed}");
    (measured.ops, measured.counts)
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_counts_and_another_seed_does_not() {
    for name in NAMES {
        let first = counts(name, 7);
        assert_eq!(first, counts(name, 7), "{name}");
        let other = counts(name, 8);
        let digests = |run: &(u64, Vec<(&'static str, u64)>)| -> Vec<u64> {
            run.1
                .iter()
                .filter(|(count, _)| count.ends_with("digest") || count.ends_with("recrawled"))
                .map(|(_, value)| *value)
                .collect()
        };
        assert!(!digests(&first).is_empty(), "{name} reports a digest");
        assert_ne!(digests(&first), digests(&other), "{name}");
    }
}

#[test]
fn benchmark_json_is_the_one_the_code_generates() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(on_disk, benchmark_json(RUN_SECONDS));
    assert_eq!(WHY.map(|(name, _)| name), NAMES);
    for (_, why) in WHY {
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    let mut names: Vec<&str> = NAMES.to_vec();
    names.extend(END_TO_END.iter().map(|(n, ..)| *n));
    names.extend(PER_LAYER.iter().map(|(n, ..)| *n));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        total,
        "a metric or workload name is used twice"
    );
    assert!(END_TO_END.contains(&("setup_s", "s", "lower", 0.25)));
}

#[test]
fn arguments_follow_the_contract() {
    let parse = |text: &str| parse_args(text.split_whitespace().map(String::from));
    assert_eq!(
        parse("--workload serve-hot --seed 12 --seconds 10 --trace 1"),
        Ok(Args {
            workload: "serve-hot".into(),
            seed: 12,
            seconds: 10.0,
            trace: true,
        })
    );
    assert_eq!(parse("--workload crawl-wire").unwrap().seed, DEFAULT_SEED);
    assert_eq!(parse("--workload crawl-wire --seed 0x10").unwrap().seed, 16);
    for bad in [
        "",
        "--workload nonesuch",
        "--workload serve-hot --trace 2",
        "--workload serve-hot --seconds 0",
        "--workload serve-hot --seconds",
        "--workload serve-hot --fast yes",
    ] {
        assert!(parse(bad).is_err(), "{bad:?}");
    }
}
