//! The reproduction harness: regenerate every table and figure of
//! *Lazy Gatekeepers* (IMC 2023) from the synthetic population, print the
//! artifacts, and write the paper-vs-measured log to EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release --bin repro -- all
//! cargo run --release --bin repro -- table4 fig5 --scale 50
//! cargo run --release --bin repro -- all --scale 1        # full 12.8M domains
//! ```
//!
//! # Targets
//!
//! Positional arguments select what to regenerate (case-insensitive, a
//! leading `--` is tolerated): `all` (the default when none are given),
//! `table1` … `table5`, `fig1` … `fig8`, `extras` (the §5.1/§5.5
//! additional findings), `overlap` (the cross-population address-space
//! overlap engine: most-spoofable address, coverage histogram, provider
//! concentration — §6 in overlap form), `spoof-matrix` (the
//! population-scale spoofability verdict matrix: `check_host()` verdicts
//! for every domain from attacker vantage addresses), and `trends` (the
//! longitudinal churn engine: `--epochs` simulated months of `--churn`
//! zone churn, re-crawled incrementally TTL-by-TTL with delta-exact
//! trend reports). Two service targets must be named explicitly — `all`
//! does not imply them: `serve` (run the resident socket-served verdict
//! daemon until interrupted or `--duration`) and `traffic` (replay a
//! generated load mix against it and print throughput/latency). The
//! single source of truth for the target list is the [`TARGETS`] table —
//! the usage string and the validity check both derive from it, and unit
//! tests pin the two to each other. Every target except `table5`,
//! `spoof-matrix`, `trends`, `serve`, and `traffic` shares one
//! generate-and-crawl pass; those build their own worlds.
//!
//! # Flags
//!
//! * `--scale N` — population scale divisor (must be ≥ 1): the synthetic
//!   population is `12,823,598 / N` domains (default `100`, i.e. ≈128k).
//!   `--scale 1` is the paper's full 12.8M-domain population.
//! * `--seed S` — RNG seed (decimal) for population generation and every
//!   stochastic model; the default `0x5bf12023` reproduces the committed
//!   numbers. Same seed + same scale ⇒ identical artifacts (only the
//!   elapsed-time lines vary between runs).
//! * `--workers W` — crawl worker threads (default: available
//!   parallelism). Results are rank-ordered and identical for any W.
//! * `--backend SPEC` — the engine selection, spelled
//!   `transport[:servers][+evaluator]` (default `memory`). Transports:
//!   `memory` resolves in-process and `wire` crawls over real sockets
//!   through the socket-pool `WireResolver`, sharding the zone across
//!   `:N` UDP name servers (default 4). Evaluators: `interpreted`
//!   (bare tree-walks), `cached` (the default subtree-verdict memo), and
//!   `compiled` (interval matchers; prints the `[compiler]` line for
//!   `spoof-matrix`/`serve`). Reports are byte-identical across every
//!   backend; the wire transport additionally prints the `[wire]`
//!   telemetry line (query amplification, coalescing, TCP fallbacks).
//! * `--out PATH` — where to write the paper-vs-measured experiment log
//!   (default `EXPERIMENTS.md`).
//! * `--no-write` — print artifacts only; skip the experiment log.
//! * `--queries N`, `--mix hot|burst|cold`, `--clients N`, `--window N`,
//!   `--transport udp|tcp` — the `traffic` target's load shape: how many
//!   queries of which [`TrafficMix`], replayed through how many pipelined
//!   clients with what per-client window, over which transport.
//! * `--duration SECS` — how long `serve` stays up (`0`, the default,
//!   means until the process is interrupted).
//! * `-h`, `--help` — usage.

use std::time::Instant;

use spf_bench::{self as bench, Repro, ServiceLab};
use spf_crawler::CrawlConfig;
use spf_report::ExperimentLog;
use spf_service::{build_plan, drive, ServiceConfig, TrafficMix, Transport, VerdictService};
use spf_types::{Backend, Stats};

const DEFAULT_SCALE: u64 = 100;
const DEFAULT_SEED: u64 = 0x5bf1_2023;

/// The one target table: `(name, what it regenerates)`. The usage
/// string's target line and the argument validator are both generated
/// from this, so the advertised and accepted sets cannot drift (the
/// `targets` test module pins both directions).
const TARGETS: &[(&str, &str)] = &[
    ("all", "every target below (the default)"),
    ("table1", "SPF and DMARC usage in the wild"),
    ("table2", "errors before/after the notification campaign"),
    ("table3", "very large IP ranges by CIDR class"),
    ("table4", "top 20 included domains"),
    ("table5", "the live-TCP web-hosting spoofing case study"),
    ("fig1", "implementation of email and security mechanisms"),
    ("fig2", "appearance of different error types"),
    ("fig3", "distribution of record-not-found errors"),
    ("fig4", "includes exceeding the DNS lookup limit"),
    ("fig5", "CDF of authorized IPv4 addresses"),
    ("fig6", "number of includes in the top-level record"),
    ("fig7", "distribution of subnet sizes in includes"),
    ("fig8", "heatmap of include usage vs. allowed IPs"),
    ("extras", "the §5.1/§5.5 additional findings"),
    (
        "overlap",
        "the cross-population address-space overlap engine",
    ),
    (
        "spoof-matrix",
        "the population-scale spoofability verdict matrix",
    ),
    (
        "trends",
        "longitudinal churn trends via TTL-driven incremental re-crawl",
    ),
    (
        "serve",
        "run the resident verdict service (not part of `all`)",
    ),
    (
        "traffic",
        "replay a generated mix against the service (not part of `all`)",
    ),
];

/// Targets that build their own world instead of sharing the main
/// generate-and-crawl pass.
const STANDALONE_TARGETS: &[&str] = &["table5", "spoof-matrix", "trends", "serve", "traffic"];

/// Targets `all` deliberately does *not* imply: `serve` blocks until
/// interrupted (or `--duration`), and `traffic` is a load test, not an
/// artifact. Both must be named explicitly.
const EXPLICIT_ONLY_TARGETS: &[&str] = &["serve", "traffic"];

/// Normalize a positional argument into target form (a leading `--` is
/// tolerated, matching is case-insensitive).
fn normalize_target(raw: &str) -> String {
    raw.trim_start_matches("--").to_lowercase()
}

/// Whether a (normalized) target name is in [`TARGETS`].
fn is_known_target(target: &str) -> bool {
    TARGETS.iter().any(|(name, _)| *name == target)
}

/// The usage string's target line, generated from [`TARGETS`].
fn target_usage_line() -> String {
    let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
    format!("targets: {}", names.join(", "))
}

struct Args {
    targets: Vec<String>,
    scale: u64,
    seed: u64,
    workers: usize,
    backend: Backend,
    out_path: Option<String>,
    // Service targets (`serve` / `traffic`) only:
    queries: usize,
    mix: TrafficMix,
    clients: usize,
    window: usize,
    transport: Transport,
    duration_secs: u64,
    // `trends` target only:
    epochs: u64,
    churn_rate: f64,
    // `spoof-matrix` target only:
    stack: bool,
}

impl Args {
    fn crawl_config(&self) -> CrawlConfig {
        CrawlConfig::with_workers(self.workers).backend(self.backend)
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        targets: Vec::new(),
        scale: DEFAULT_SCALE,
        seed: DEFAULT_SEED,
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
        backend: Backend::default(),
        out_path: Some("EXPERIMENTS.md".to_string()),
        queries: 20_000,
        mix: TrafficMix::HotSkew,
        clients: 4,
        window: 32,
        transport: Transport::Udp,
        duration_secs: 0,
        epochs: 6,
        churn_rate: 0.01,
        stack: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --scale"));
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --seed"));
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --workers"));
            }
            "--backend" => {
                let spec = it
                    .next()
                    .unwrap_or_else(|| usage("missing value for --backend"));
                args.backend =
                    Backend::parse(&spec).unwrap_or_else(|e| usage(&format!("--backend: {e}")));
            }
            "--stack" => args.stack = true,
            "--queries" => {
                args.queries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--queries must be a positive integer"));
            }
            "--mix" => {
                args.mix = it
                    .next()
                    .as_deref()
                    .and_then(TrafficMix::parse)
                    .unwrap_or_else(|| usage("--mix must be `hot`, `burst`, or `cold`"));
            }
            "--clients" => {
                args.clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--clients must be a positive integer"));
            }
            "--window" => {
                args.window = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--window must be a positive integer"));
            }
            "--transport" => {
                args.transport = match it.next().as_deref() {
                    Some("udp") => Transport::Udp,
                    Some("tcp") => Transport::Tcp,
                    _ => usage("--transport must be `udp` or `tcp`"),
                };
            }
            "--epochs" => {
                args.epochs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--epochs must be a positive integer"));
            }
            "--churn" => {
                args.churn_rate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|r: &f64| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| usage("--churn must be a rate in [0, 1]"));
            }
            "--duration" => {
                args.duration_secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("missing value for --duration"));
            }
            "--no-write" => args.out_path = None,
            "--out" => {
                args.out_path = Some(
                    it.next()
                        .unwrap_or_else(|| usage("missing value for --out")),
                );
            }
            "-h" | "--help" => usage(""),
            other => args.targets.push(normalize_target(other)),
        }
    }
    if args.scale == 0 {
        usage("--scale must be at least 1");
    }
    if let Some(unknown) = args.targets.iter().find(|t| !is_known_target(t)) {
        usage(&format!("unknown target `{unknown}`"));
    }
    if args.targets.is_empty() {
        args.targets.push("all".to_string());
    }
    args
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}\n");
    }
    eprintln!(
        "repro — regenerate the paper's tables and figures\n\n\
         usage: repro [targets...] [--scale N] [--seed S] [--workers W]\n\
         \x20             [--backend SPEC] [--out PATH | --no-write]\n\
         \x20             [--queries N] [--mix hot|burst|cold] [--clients N] [--window N]\n\
         \x20             [--transport udp|tcp] [--duration SECS]\n\
         \x20             [--epochs N] [--churn RATE]\n\n\
         {}\n\
         scale:   population is 12,823,598 / N domains (default N = {DEFAULT_SCALE})\n\
         backend: transport[:servers][+evaluator] (default `memory`) —\n\
         \x20        transports: memory (in-process), wire (socket pool over UDP/TCP\n\
         \x20        against :N hash-sharded authoritative name servers);\n\
         \x20        evaluators: interpreted, cached (default), compiled (interval\n\
         \x20        matchers — verdict-identical, prints the [compiler] line)\n\
         service: `serve` runs the resident verdict daemon (--workers pool,\n\
         \x20        --duration 0 = until interrupted); `traffic` replays --queries\n\
         \x20        of a --mix through --clients pipelined clients over --transport\n\
         trends:  `trends` simulates --epochs virtual months (default 6) of\n\
         \x20        --churn zone churn per month (default 0.01) and re-crawls\n\
         \x20        incrementally, TTL-driven, folding exact deltas\n\
         stack:   `spoof-matrix --stack` layers DMARC and MTA-STS on the SPF\n\
         \x20        matrix (matrix v2): per-layer stop rates by deployment-mix\n\
         \x20        preset and the residual spoofable set\n",
        target_usage_line()
    );
    std::process::exit(2)
}

fn wants(targets: &[String], name: &str) -> bool {
    targets.iter().any(|t| t == "all" || t == name)
}

/// The `wants` variant for [`EXPLICIT_ONLY_TARGETS`]: `all` does not
/// count — the target must be named on the command line.
fn explicitly_named(targets: &[String], name: &str) -> bool {
    debug_assert!(EXPLICIT_ONLY_TARGETS.contains(&name));
    targets.iter().any(|t| t == name)
}

fn main() {
    let args = parse_args();
    let t = &args.targets;
    let needs_scan = t.iter().any(|x| !STANDALONE_TARGETS.contains(&x.as_str()));

    println!(
        "Lazy Gatekeepers reproduction — scale 1:{} (≈{} domains), seed 0x{:x}, backend {}\n",
        args.scale,
        12_823_598 / args.scale,
        args.seed,
        args.backend,
    );

    let mut log = ExperimentLog::new(args.scale, args.seed);
    let started = Instant::now();
    let repro: Option<Repro> = if needs_scan {
        println!("[generate + crawl] building the synthetic Internet and scanning it ...");
        let r = bench::prepare_with(args.scale, args.seed, args.crawl_config());
        println!(
            "[generate + crawl] {} domains, {} zone records, {} cached include analyses ({:.1?})",
            r.reports.len(),
            r.population.store.record_count(),
            r.walker.cache_len(),
            started.elapsed()
        );
        println!("{}", r.stats.render());
        if let Some(wire) = &r.wire {
            println!("{}", wire.stats(r.stats.domains).render());
        }
        println!();
        Some(r)
    } else {
        None
    };

    if let Some(r) = repro.as_ref() {
        if wants(t, "table1") {
            let (table, exp) = bench::table1(r);
            println!("{}", table.render());
            log.push(exp);
        }
        if wants(t, "fig1") {
            let (table, exp) = bench::figure1(r);
            println!("{}", table.render());
            log.push(exp);
        }
        if wants(t, "fig2") {
            let (chart, exp) = bench::figure2(r);
            println!("{chart}");
            log.push(exp);
        }
        if wants(t, "fig3") {
            let (chart, exp) = bench::figure3(r);
            println!("{chart}");
            log.push(exp);
        }
        if wants(t, "fig4") {
            let (table, exp) = bench::figure4(r);
            println!("{}", table.render());
            log.push(exp);
        }
        if wants(t, "table3") {
            let (table, exp) = bench::table3(r);
            println!("{}", table.render());
            log.push(exp);
        }
        if wants(t, "table4") {
            let (table, exp) = bench::table4(r);
            println!("{}", table.render());
            log.push(exp);
        }
        if wants(t, "fig5") {
            let (series, exp) = bench::figure5(r);
            println!("{series}");
            log.push(exp);
        }
        if wants(t, "fig6") {
            let (chart, exp) = bench::figure6(r);
            println!("{chart}");
            log.push(exp);
        }
        if wants(t, "fig7") {
            let (chart, exp) = bench::figure7(r);
            println!("{chart}");
            log.push(exp);
        }
        if wants(t, "fig8") {
            let (summary, exp) = bench::figure8(r);
            println!("{summary}");
            log.push(exp);
        }
        if wants(t, "extras") {
            let (table, exp) = bench::extras(r);
            println!("{}", table.render());
            log.push(exp);
        }
        if wants(t, "overlap") {
            let (section, exp) = bench::overlap(r);
            println!("{section}");
            log.push(exp);
        }
        // Table 2 mutates the zone (remediation), so it runs last.
        if wants(t, "table2") {
            println!("[notify] running the notification campaign and two-week rescan ...");
            let (table, exp, outcome, rescan_stats) = bench::table2(r, args.workers);
            println!("{}", rescan_stats.render());
            println!(
                "[notify] {} eligible, {} sent, {} bounced, {} thanked, {} complaints \
                 ({} virtual send time)\n",
                outcome.eligible,
                outcome.sent,
                outcome.bounced,
                outcome.thanked,
                outcome.complaints,
                humantime(outcome.elapsed),
            );
            println!("{}", table.render());
            log.push(exp);
        }
    }

    if wants(t, "table5") {
        println!("[case study] renting web space and spoofing over live TCP SMTP ...");
        let (table, exp) = bench::table5(args.scale);
        println!("{}", table.render());
        log.push(exp);
    }

    if wants(t, "spoof-matrix") {
        if args.stack {
            println!(
                "[spoof matrix] evaluating the layered auth stack (SPF × DMARC × \
                 MTA-STS) for the whole population from attacker vantage addresses ..."
            );
            let (section, exp) =
                bench::spoof_matrix_stacked(args.scale, args.seed, args.crawl_config());
            println!("{section}");
            log.push(exp);
        } else {
            println!(
                "[spoof matrix] evaluating check_host() for the whole population from \
                 attacker vantage addresses ..."
            );
            let (section, exp) = bench::spoof_matrix(args.scale, args.seed, args.crawl_config());
            println!("{section}");
            log.push(exp);
        }
    }

    if wants(t, "trends") {
        println!(
            "[trends] simulating {} virtual months of {:.1}% monthly zone churn ...",
            args.epochs,
            args.churn_rate * 100.0,
        );
        let (section, exp) = bench::trends(
            args.scale,
            args.seed,
            args.crawl_config(),
            args.epochs,
            args.churn_rate,
        );
        println!("{section}");
        log.push(exp);
    }

    let wants_serve = explicitly_named(t, "serve");
    let wants_traffic = explicitly_named(t, "traffic");
    if wants_serve || wants_traffic {
        run_service(&args, wants_serve, wants_traffic);
    }

    println!("done in {:.1?}", started.elapsed());

    if let Some(path) = args.out_path {
        let md = log.to_markdown();
        match std::fs::write(&path, md) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// The `serve` / `traffic` targets: build the population once, spawn the
/// resident [`VerdictService`], then either replay a generated mix
/// through it, keep it up printing telemetry, or both (traffic first,
/// then serve).
fn run_service(args: &Args, wants_serve: bool, wants_traffic: bool) {
    println!(
        "[service] building the 1:{} population and its vantage set ...",
        args.scale
    );
    let lab: ServiceLab = bench::service_lab(args.scale, args.seed, args.workers);
    let (resolver, wire) = bench::build_resolver(&lab.store, args.backend);
    let config = ServiceConfig::from_backend(args.backend, args.workers);
    let mut service = match VerdictService::spawn(resolver, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start the verdict service: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "[service] listening on udp+tcp {} — {} domains, {} vantage addresses, {} workers",
        service.addr(),
        lab.domains.len(),
        lab.vantage_ips.len(),
        args.workers,
    );

    if wants_traffic {
        let plan = build_plan(
            args.mix,
            &lab.domains,
            &lab.vantage_ips,
            args.queries,
            args.seed,
        );
        println!(
            "[traffic] replaying {} `{}` queries over {} ({} clients, window {}) ...",
            plan.len(),
            args.mix,
            args.transport,
            args.clients,
            args.window,
        );
        match drive(
            service.addr(),
            args.transport,
            args.mix,
            &plan,
            args.clients,
            args.window,
        ) {
            Ok(report) => println!("{report}"),
            Err(e) => eprintln!("traffic run failed: {e}"),
        }
        println!("{}", service.telemetry());
    }

    if wants_serve {
        serve_until_done(&service, args.duration_secs);
    }
    let served = service.telemetry().served;
    service.shutdown();
    if let Some(run) = &wire {
        println!("{}", run.stats(served).render());
    }
}

/// Keep the daemon up, printing a `[service]` telemetry line every five
/// seconds. `duration_secs == 0` means run until the process is killed.
fn serve_until_done(service: &VerdictService, duration_secs: u64) {
    use std::time::Duration;
    let started = Instant::now();
    let mut last_report = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(250));
        if duration_secs > 0 && started.elapsed() >= Duration::from_secs(duration_secs) {
            println!("{}", service.telemetry());
            return;
        }
        if last_report.elapsed() >= Duration::from_secs(5) {
            println!("{}", service.telemetry());
            last_report = Instant::now();
        }
    }
}

fn humantime(d: std::time::Duration) -> String {
    let s = d.as_secs();
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod targets {
    use super::*;

    #[test]
    fn every_advertised_target_is_accepted() {
        // The usage line is generated from TARGETS; split it back apart
        // and check each advertised name round-trips through the
        // normalizer into an accepted target.
        let line = target_usage_line();
        let advertised = line.strip_prefix("targets: ").expect("usage line shape");
        for name in advertised.split(", ") {
            assert!(
                is_known_target(&normalize_target(name)),
                "advertised target `{name}` is not accepted"
            );
            // The documented `--target` spelling is accepted too.
            assert!(is_known_target(&normalize_target(&format!("--{name}"))));
            // And so is any case the user types.
            assert!(is_known_target(&normalize_target(
                &name.to_ascii_uppercase()
            )));
        }
    }

    #[test]
    fn every_known_target_is_advertised() {
        let line = target_usage_line();
        let advertised: Vec<&str> = line
            .strip_prefix("targets: ")
            .expect("usage line shape")
            .split(", ")
            .collect();
        for (name, help) in TARGETS {
            assert!(
                advertised.contains(name),
                "known target `{name}` missing from the usage line"
            );
            assert!(!help.is_empty(), "target `{name}` has no help text");
        }
        assert_eq!(advertised.len(), TARGETS.len(), "duplicate advertisement");
    }

    #[test]
    fn standalone_targets_are_known() {
        for name in STANDALONE_TARGETS {
            assert!(is_known_target(name));
        }
        // Everything else shares the scan pass; `all` implies it.
        assert!(!STANDALONE_TARGETS.contains(&"all"));
    }

    #[test]
    fn explicit_only_targets_are_standalone_and_not_implied_by_all() {
        let all = vec!["all".to_string()];
        for name in EXPLICIT_ONLY_TARGETS {
            assert!(is_known_target(name));
            // They build their own world (never trigger the scan pass) ...
            assert!(STANDALONE_TARGETS.contains(name));
            // ... and `all` must never reach them: main() gates them on
            // `explicitly_named`, which ignores `all`, precisely because
            // plain `wants` would imply them.
            assert!(wants(&all, name), "wants() itself would imply {name}");
            assert!(!explicitly_named(&all, name));
            let named = vec![name.to_string()];
            assert!(explicitly_named(&named, name));
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        // The removed engine flags are unknown targets like any other
        // stray word, so `repro --mode wire` exits 2 with the usage text.
        for bad in [
            "fig9",
            "table6",
            "spoofmatrix",
            "",
            "--mode",
            "--servers",
            "--compiled",
        ] {
            assert!(!is_known_target(&normalize_target(bad)), "{bad}");
        }
    }
}
