//! Failure runs: the whole pipeline must stay total and deterministic
//! when the DNS starts failing underneath it (the paper's crawler faced
//! the same on the live Internet — 1,179 DNS errors plus timeouts inside
//! evaluations).
//!
//! The failures are placed in the zone, the one DNS fault model: a
//! seeded share of the population's domains times out, answers SERVFAIL,
//! does not exist (NXDOMAIN) or exists with no records (empty answers).
//! A name's fault does not depend on the order its questions arrive in,
//! so every crawl below may run on several workers, and the in-memory
//! and the wire transport meet the same failures.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;

use lazy_gatekeepers::prelude::*;
use spf_core::{CompileConfig, EvalProblem, FetchFailure, NotFoundCause, ResidueKind, SyntaxError};
use spf_dns::ZoneFault;
use spf_testkit::{assert_conservation, dom, pairs_with_reference, population_at, replay, SENDER};

const SEED: u64 = 0x5bf1_2023;

/// Shares of the faulted names, in the order a name's roll meets them.
#[derive(Debug, Clone, Copy, Default)]
struct Faults {
    timeout: f64,
    servfail: f64,
    nxdomain: f64,
    empty: f64,
}

/// A uniform draw in `[0, 1)` for `name` under `seed`: the splitmix64
/// finalizer over the name's hash, so a name's draw is independent of
/// every other name's.
fn roll(seed: u64, name: &DomainName) -> f64 {
    let mut z = seed ^ name.precomputed_hash();
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Fault each of `names` in `store` with the shares of `faults`, by its
/// roll under `seed`; returns how many names were faulted.
fn place_faults<'a>(
    store: &ZoneStore,
    names: impl IntoIterator<Item = &'a DomainName>,
    faults: Faults,
    seed: u64,
) -> usize {
    let shares = [
        faults.timeout,
        faults.servfail,
        faults.nxdomain,
        faults.empty,
    ];
    let mut faulted = 0;
    for name in names {
        let draw = roll(seed, name);
        let mut bound = 0.0;
        let Some(kind) = shares.iter().position(|share| {
            bound += share;
            draw < bound
        }) else {
            continue;
        };
        match kind {
            0 => store.set_fault(name, ZoneFault::Timeout),
            1 => store.set_fault(name, ZoneFault::ServFail),
            2 => store.remove_name(name),
            _ => {
                store.remove_name(name);
                store.add_empty_name(name);
            }
        }
        faulted += 1;
    }
    faulted
}

/// The population with a seeded share of its domains faulted.
fn faulted_population(faults: Faults, seed: u64) -> Population {
    let pop = population_at(20_000);
    let faulted = place_faults(&pop.store, &pop.domains, faults, seed);
    assert!(faulted > 0, "no domain drew a fault under {faults:?}");
    pop
}

fn memory_reports(pop: &Population) -> Vec<DomainReport> {
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&pop.store)));
    crawl(&walker, &pop.domains, CrawlConfig::with_workers(4)).reports
}

#[test]
fn pipeline_survives_heavy_fault_injection() {
    let pop = faulted_population(
        Faults {
            timeout: 0.10,
            servfail: 0.05,
            nxdomain: 0.05,
            empty: 0.05,
        },
        99,
    );
    let agg = ScanAggregates::compute(&memory_reports(&pop));
    // Everything completed; nothing panicked; every domain has a report.
    assert_eq!(agg.total_domains as usize, pop.domains.len());
    // A quarter of the domains failing must surface as transient
    // exclusions and/or lost records, like the paper's excluded DNS
    // errors.
    assert!(agg.dns_transient > 0, "zone timeouts must be observed");
    let clean = ScanAggregates::compute(&memory_reports(&population_at(20_000)));
    assert!(
        agg.with_spf < clean.with_spf,
        "faults must lose some records ({} vs {})",
        agg.with_spf,
        clean.with_spf
    );
}

#[test]
fn fault_injection_is_reproducible_per_seed() {
    let run = |seed| {
        let pop = faulted_population(
            Faults {
                timeout: 0.1,
                nxdomain: 0.1,
                ..Faults::default()
            },
            seed,
        );
        let agg = ScanAggregates::compute(&memory_reports(&pop));
        (agg.with_spf, agg.dns_transient, agg.total_errors())
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds should fail differently");
}

#[test]
fn moderate_faults_keep_headline_rates_in_the_neighbourhood() {
    let pop = faulted_population(
        Faults {
            timeout: 0.01,
            ..Faults::default()
        },
        3,
    );
    let agg = ScanAggregates::compute(&memory_reports(&pop));
    // 1 % timeouts should not move SPF adoption by more than a few points.
    let rate = agg.spf_rate();
    assert!((0.50..=0.60).contains(&rate), "spf rate {rate}");
}

#[test]
fn degraded_shard_degrades_to_temperror_not_divergence() {
    // One degraded shard of four: a share of the domains it serves time
    // out or answer SERVFAIL. That must surface as transient DNS errors
    // (the paper's temperror cohort), never as a hang, a crash, missing
    // reports or a report the in-memory crawl would not write.
    let servers = 4;
    let pop = population_at(20_000);
    let victims = pop
        .domains
        .iter()
        .filter(|d| d.precomputed_hash() % servers as u64 == 1);
    let faults = Faults {
        timeout: 0.10,
        servfail: 0.15,
        ..Faults::default()
    };
    let faulted = place_faults(&pop.store, victims, faults, SEED);
    assert!(faulted > 0, "the degraded shard faulted no domain");
    let reference = serde_json::to_string(&memory_reports(&pop)).expect("serializes");

    let fleet =
        WireFleet::spawn(&pop.store, servers, ServerConfig::default()).expect("fleet spawns");
    // 250 ms per attempt: see `wire_stress.rs`'s client profile.
    let resolver = Arc::new(fleet.resolver(WireClientConfig {
        timeout: Duration::from_millis(250),
        ..WireClientConfig::crawl()
    }));
    let out = crawl(
        &Walker::new(Arc::clone(&resolver)),
        &pop.domains,
        CrawlConfig::with_workers(4).backend(Backend::wire(servers)),
    );
    let snapshot = resolver.snapshot();
    let json = serde_json::to_string(&out.reports).expect("serializes");
    assert!(
        json == reference,
        "the degraded shard changed the reports: {snapshot:?}"
    );
    // A timed-out question spends its one retry and degrades to
    // temperror, and no other question retries.
    assert!(snapshot.temp_errors > 0, "{snapshot:?}");
    assert_eq!(snapshot.retries, snapshot.temp_errors, "{snapshot:?}");
    snapshot.check_conservation().unwrap();
}

/// How a row of the fault-agreement table breaks a name.
#[derive(Clone, Copy)]
enum Breakage {
    /// The name publishes `v=spf1 -all`, but its server fails.
    Fault(ZoneFault),
    /// The name does not exist.
    Missing,
    /// The name exists and owns no record.
    Empty,
    /// The name's TXT strings.
    Txt(&'static [&'static str]),
}

impl Breakage {
    fn place(self, store: &ZoneStore, name: &DomainName) {
        match self {
            Breakage::Fault(fault) => {
                store.add_txt(name, "v=spf1 -all");
                store.set_fault(name, fault);
            }
            Breakage::Missing => {}
            Breakage::Empty => store.add_empty_name(name),
            Breakage::Txt(texts) => texts.iter().for_each(|text| store.add_txt(name, text)),
        }
    }
}

/// One failure kind of the fault-agreement table: how it is placed at a
/// name, and what each consumer must make of that name — as the crawl
/// root, and as the include target of a clean root.
struct FaultRow {
    name: &'static str,
    breakage: Breakage,
    /// The walker's fetch of the faulted root.
    root_fetch: Option<FetchFailure>,
    /// The faulted root's report: `dns_transient` and `primary_error`.
    root_report: (bool, Option<ErrorClass>),
    /// `check_host`'s result and problem at the faulted root.
    root_verdict: (SpfResult, fn(DomainName) -> EvalProblem),
    /// The Figure 3 cause the walker records at the faulted target.
    include_cause: Option<NotFoundCause>,
    /// The including root's `primary_error`.
    include_primary: ErrorClass,
    /// `check_host`'s result and problem through the faulted target.
    include_verdict: (SpfResult, fn(DomainName) -> EvalProblem),
    /// The compiler parks the faulted name as a transient residue.
    transient: bool,
}

fn transient_row(name: &'static str, fault: ZoneFault) -> FaultRow {
    FaultRow {
        name,
        breakage: Breakage::Fault(fault),
        root_fetch: Some(FetchFailure::Transient),
        root_report: (true, None),
        root_verdict: (SpfResult::TempError, |domain| EvalProblem::DnsTransient {
            domain,
        }),
        include_cause: Some(NotFoundCause::DnsTimeout),
        include_primary: ErrorClass::RecordNotFound,
        include_verdict: (SpfResult::TempError, |domain| EvalProblem::DnsTransient {
            domain,
        }),
        transient: true,
    }
}

fn fault_rows() -> [FaultRow; 8] {
    [
        transient_row("timeout", ZoneFault::Timeout),
        transient_row("servfail", ZoneFault::ServFail),
        transient_row("refused", ZoneFault::Refused),
        FaultRow {
            name: "nxdomain",
            breakage: Breakage::Missing,
            root_fetch: Some(FetchFailure::NxDomain),
            root_report: (false, None),
            root_verdict: (SpfResult::None, |_| EvalProblem::NoRecord),
            include_cause: Some(NotFoundCause::DomainNotFound),
            include_primary: ErrorClass::RecordNotFound,
            include_verdict: (SpfResult::PermError, |domain| EvalProblem::RecordNotFound {
                domain,
                cause: NotFoundCause::DomainNotFound,
            }),
            transient: false,
        },
        FaultRow {
            name: "empty",
            breakage: Breakage::Empty,
            root_fetch: Some(FetchFailure::EmptyAnswer),
            root_report: (false, None),
            root_verdict: (SpfResult::None, |_| EvalProblem::NoRecord),
            include_cause: Some(NotFoundCause::EmptyResult),
            include_primary: ErrorClass::RecordNotFound,
            include_verdict: (SpfResult::PermError, |domain| EvalProblem::RecordNotFound {
                domain,
                cause: NotFoundCause::EmptyResult,
            }),
            transient: false,
        },
        FaultRow {
            name: "no-spf",
            breakage: Breakage::Txt(&["site-verification=xyz"]),
            root_fetch: Some(FetchFailure::NoSpfRecord),
            root_report: (false, None),
            root_verdict: (SpfResult::None, |_| EvalProblem::NoRecord),
            include_cause: Some(NotFoundCause::NoSpfRecord),
            include_primary: ErrorClass::RecordNotFound,
            include_verdict: (SpfResult::PermError, |domain| EvalProblem::RecordNotFound {
                domain,
                cause: NotFoundCause::NoSpfRecord,
            }),
            transient: false,
        },
        FaultRow {
            name: "multiple",
            breakage: Breakage::Txt(&["v=spf1 -all", "v=spf1 mx -all"]),
            root_fetch: Some(FetchFailure::Multiple(2)),
            root_report: (false, Some(ErrorClass::RecordNotFound)),
            root_verdict: (SpfResult::PermError, |domain| {
                EvalProblem::MultipleRecords { domain, count: 2 }
            }),
            include_cause: Some(NotFoundCause::MultipleSpfRecords),
            include_primary: ErrorClass::RecordNotFound,
            include_verdict: (SpfResult::PermError, |domain| {
                EvalProblem::MultipleRecords { domain, count: 2 }
            }),
            transient: false,
        },
        FaultRow {
            name: "syntax",
            breakage: Breakage::Txt(&["v=spf1 ipv4:192.0.2.1 -all"]),
            root_fetch: None,
            root_report: (false, Some(ErrorClass::SyntaxError)),
            root_verdict: (SpfResult::PermError, misspelled_ipv4),
            include_cause: None,
            include_primary: ErrorClass::SyntaxError,
            include_verdict: (SpfResult::PermError, misspelled_ipv4),
            transient: false,
        },
    ]
}

fn misspelled_ipv4(domain: DomainName) -> EvalProblem {
    EvalProblem::Syntax {
        domain,
        error: SyntaxError::MisspelledMechanism {
            written: "ipv4:192.0.2.1".to_string(),
            suggestion: "ip4".to_string(),
        },
    }
}

/// Every failure kind, at the root and at an include target, read by
/// every consumer of a fetch: the walker's finding and the domain's
/// report, `check_host`'s result and problem, the compiled verdict (or
/// its transient residue, which falls back to `check_host`), and the
/// verdict service under each evaluator — all from one zone.
#[test]
fn every_consumer_agrees_on_every_fetch_failure() {
    let store = Arc::new(ZoneStore::new());
    let rows = fault_rows();
    let mut roots = Vec::new();
    for row in &rows {
        let root = dom(&format!("{}-root.example", row.name));
        let via = dom(&format!("{}-via.example", row.name));
        let target = dom(&format!("{}-target.example", row.name));
        row.breakage.place(&store, &root);
        row.breakage.place(&store, &target);
        store.add_txt(&via, &format!("v=spf1 include:{target} -all"));
        roots.push((row, root.clone(), root.clone(), true));
        roots.push((row, via, target, false));
    }
    let resolver = ZoneResolver::new(Arc::clone(&store));
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
    let ips: [IpAddr; 2] = ["192.0.2.1".parse().unwrap(), "2001:db8::1".parse().unwrap()];
    for (row, root, faulted, at_root) in &roots {
        let cell = format!(
            "{} at {}",
            row.name,
            if *at_root { "root" } else { "include" }
        );
        let report = analyze_domain(&walker, root);
        let analysis = report
            .record
            .as_ref()
            .expect("every report holds its analysis");
        let causes: Vec<NotFoundCause> = analysis
            .errors
            .iter()
            .filter_map(|e| e.not_found_cause)
            .collect();
        let (result, problem) = if *at_root {
            assert_eq!(analysis.fetch, row.root_fetch, "{cell}");
            assert!(causes.is_empty(), "{cell}: {causes:?}");
            assert_eq!(
                (report.dns_transient, report.primary_error),
                row.root_report,
                "{cell}"
            );
            row.root_verdict
        } else {
            assert_eq!(analysis.fetch, None, "{cell}");
            assert_eq!(causes, Vec::from_iter(row.include_cause), "{cell}");
            assert_eq!(
                (report.dns_transient, report.primary_error),
                (false, Some(row.include_primary)),
                "{cell}"
            );
            row.include_verdict
        };

        let compiled = compile_policy(&resolver, root, &CompileConfig::default());
        let parked = compiled
            .residues()
            .iter()
            .any(|r| r.kind == ResidueKind::Transient && r.domain == *faulted);
        assert_eq!(parked, row.transient, "{cell}: {:?}", compiled.residues());
        for ip in ips {
            let ctx = EvalContext::mail_from(ip, SENDER, root.clone());
            let bare = check_host(&resolver, &ctx, root, &EvalPolicy::default());
            assert_eq!(
                (bare.result, bare.problem.clone()),
                (result, Some(problem(faulted.clone()))),
                "{cell} from {ip}"
            );
            match compiled.verdict(ip) {
                Some(verdict) => assert_eq!(verdict, bare, "{cell} from {ip}"),
                None => assert!(row.transient, "{cell} from {ip} fell back"),
            }
        }
    }

    let domains: Vec<DomainName> = roots.iter().map(|(_, root, ..)| root.clone()).collect();
    let items = pairs_with_reference(&store, &domains, &ips);
    let resolver: Arc<dyn Resolver> = Arc::new(resolver);
    for evaluator in Evaluator::ALL {
        let label = format!("fault table +{evaluator}");
        let config = ServiceConfig {
            evaluator,
            ..ServiceConfig::with_workers(2)
        };
        let mut service = VerdictService::spawn(Arc::clone(&resolver), config).expect("spawns");
        replay(service.addr(), Transport::Udp, &items, &label);
        service.shutdown();
        assert_conservation(&service, &label);
    }
}
