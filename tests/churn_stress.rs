//! Longitudinal determinism under stress: the churn engine's folded
//! state must be byte-identical across every worker count and every
//! [`Backend`] transport — DESIGN.md §12's guarantee at DESIGN.md §3's
//! scale. The suite drives the same fixed churn sequence over the 1:500
//! population (≈25.6k domains) through workers ∈ {1, 4, 32} × backends
//! ∈ {memory, wire}, including a churn batch delivered from
//! another thread *while an epoch's step is running* (the quiesce/defer
//! path), and compares the serialized reports + weighted coverage of
//! every configuration against the single-threaded in-memory reference.
//!
//! The plumbing mirrors the production `trends` pipeline: every
//! configuration keeps one long-lived walker whose churned roots are
//! invalidated in place. The wire fleet serves the live zone, but its
//! client caches answers for their DNS TTL in real time, so the wire
//! configurations clear that cache after every zone edit; without the
//! clear they re-crawl churned roots from stale answers and diverge.

use std::sync::Arc;
use std::time::Duration;

use lazy_gatekeepers::bench::{build_resolver, WireRun};
use lazy_gatekeepers::prelude::*;
use spf_testkit::population_at;

const SEED: u64 = 0x5bf1_2023;
const CHURN_RATE: f64 = 0.01;
const MONTH: Duration = Duration::from_secs(30 * 86_400);
/// TTLs beyond the simulated horizon: the due set is exactly the churn
/// delta, keeping the wire configurations' epoch crawls cheap.
const LONG_TTL: Duration = Duration::from_secs(10 * 365 * 86_400);
const WIRE_SERVERS: usize = 2;

/// Edit the live zone, then drop the wire client's cached answers, which
/// would otherwise outlive the edit by their DNS TTL.
fn apply(batch: &ChurnBatch, store: &ZoneStore, wire: &Option<WireRun>) {
    batch.apply(store);
    if let Some(run) = wire {
        run.resolver.clear_cache();
    }
}

/// Serialized engine state: the per-domain reports and the weighted
/// coverage profile, the two artifacts every downstream table reads.
fn snapshot(engine: &ChurnEngine) -> String {
    format!(
        "{}\n{}",
        serde_json::to_string(&engine.reports()).expect("reports serialize"),
        serde_json::to_string(&engine.weighted()).expect("coverage serializes"),
    )
}

/// Run the fixed three-epoch churn scenario under one configuration and
/// return the serialized state after the deterministic first epoch and
/// after the final flush epoch.
///
/// Epoch 2 is the mid-crawl epoch: a churn batch is delivered from a
/// spawned thread racing the step's inbox drain. Whichever way the race
/// resolves, delivery only buffers (zone mutation happened before, and
/// the engine applies invalidation + re-crawl inside the single-threaded
/// step), so the post-flush state is identical in every interleaving.
fn run_scenario(workers: usize, backend: Backend) -> (String, String) {
    let population = population_at(500);
    let store = Arc::clone(&population.store);
    let config = LongitudinalConfig::default()
        .crawl(CrawlConfig::with_workers(workers))
        .ttl(LONG_TTL, Duration::ZERO);

    // The configuration's one walker, built as `trends` builds it.
    let (resolver, wire) = build_resolver(&store, backend);
    let walker = Walker::new(resolver);
    let engine = ChurnEngine::bootstrap(&walker, population.domains.clone(), config);
    let mut sim = ChurnSimulator::new(
        Arc::clone(&store),
        population.domains.clone(),
        ChurnConfig {
            rate: CHURN_RATE,
            seed: SEED,
            ..ChurnConfig::default()
        },
    );

    // Epoch 1: plain deterministic delivery.
    let batch = sim.next_epoch();
    apply(&batch, &store, &wire);
    engine.deliver(ZoneDelta::new(batch.domains(), || {}));
    let report = engine.step(&walker, MONTH);
    assert!(report.recrawled >= 1, "churn must re-crawl something");
    assert_eq!(report.expired_domains, 0, "long TTLs must not expire");
    let after_epoch1 = snapshot(&engine);

    // Epoch 2: the batch lands mid-crawl, racing the step.
    let batch = sim.next_epoch();
    apply(&batch, &store, &wire);
    let changed = batch.domains();
    std::thread::scope(|scope| {
        let engine = &engine;
        scope.spawn(move || {
            engine.deliver(ZoneDelta::new(changed, || {}));
        });
        engine.step(&walker, MONTH * 2);
    });
    // Epoch 3: flush — whichever side of the race the delivery landed
    // on, it is applied by now.
    engine.step(&walker, MONTH * 3);
    assert_eq!(engine.pending_deltas(), 0);
    let after_flush = snapshot(&engine);

    drop(wire);
    (after_epoch1, after_flush)
}

#[test]
fn churned_state_is_byte_identical_across_workers_and_backends() {
    let (ref_epoch1, ref_flush) = run_scenario(1, Backend::memory());

    // The reference itself must match a from-scratch recompute of the
    // final churned zone before it judges anyone else.
    {
        let population = population_at(500);
        let store = Arc::clone(&population.store);
        let mut sim = ChurnSimulator::new(
            Arc::clone(&store),
            population.domains.clone(),
            ChurnConfig {
                rate: CHURN_RATE,
                seed: SEED,
                ..ChurnConfig::default()
            },
        );
        for _ in 0..2 {
            sim.next_epoch().apply(&store);
        }
        let walker = Walker::new(ZoneResolver::new(Arc::clone(&store)));
        let full = crawl(&walker, &population.domains, CrawlConfig::with_workers(4));
        let full_snapshot = format!(
            "{}\n{}",
            serde_json::to_string(&full.reports).expect("reports serialize"),
            serde_json::to_string(&full.coverage.into_weighted()).expect("coverage serializes"),
        );
        assert_eq!(
            ref_flush, full_snapshot,
            "incremental reference diverged from full recompute"
        );
    }

    for backend in [Backend::memory(), Backend::wire(WIRE_SERVERS)] {
        for workers in [1usize, 4, 32] {
            if (workers, backend) == (1, Backend::memory()) {
                continue;
            }
            let (epoch1, flush) = run_scenario(workers, backend);
            assert_eq!(
                epoch1, ref_epoch1,
                "epoch-1 state diverged at workers={workers} backend={backend}"
            );
            assert_eq!(
                flush, ref_flush,
                "post-flush state diverged at workers={workers} backend={backend}"
            );
        }
    }
}
