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

use std::sync::Arc;
use std::time::Duration;

use lazy_gatekeepers::prelude::*;
use spf_dns::ZoneFault;
use spf_testkit::population_at;

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
