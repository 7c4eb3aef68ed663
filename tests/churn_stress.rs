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
//! Backend-specific plumbing mirrors the production `trends` pipeline:
//! memory backends keep one long-lived walker whose churned roots are
//! invalidated in-place, while the wire backend rebuilds its server fleet
//! and walker each epoch because the fleet's zone shards are deep
//! copies taken at spawn time.

use std::sync::Arc;
use std::time::Duration;

use lazy_gatekeepers::prelude::*;

const SEED: u64 = 0x5bf1_2023;
const CHURN_RATE: f64 = 0.01;
const MONTH: Duration = Duration::from_secs(30 * 86_400);
/// TTLs beyond the simulated horizon: the due set is exactly the churn
/// delta, keeping the wire configurations' epoch crawls cheap.
const LONG_TTL: Duration = Duration::from_secs(10 * 365 * 86_400);
const WIRE_SERVERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BackendKind {
    Memory,
    Wire,
}

/// Build a walker for the current zone state under the given backend.
/// Returns the fleet too where one exists — it must stay alive for the
/// walker's lifetime.
fn build_walker(
    store: &Arc<ZoneStore>,
    backend: BackendKind,
) -> (Walker<Arc<dyn Resolver>>, Option<WireFleet>) {
    match backend {
        BackendKind::Memory => {
            let resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(store)));
            (Walker::new(resolver), None)
        }
        BackendKind::Wire => {
            let fleet = WireFleet::spawn(store, WIRE_SERVERS, ServerConfig::default())
                .expect("fleet spawns");
            let resolver: Arc<dyn Resolver> = Arc::new(fleet.resolver(WireClientConfig::crawl()));
            (Walker::new(resolver), Some(fleet))
        }
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
fn run_scenario(workers: usize, backend: BackendKind) -> (String, String) {
    let population = Population::build(PopulationConfig {
        scale: Scale::stress(),
        seed: SEED,
    });
    let store = Arc::clone(&population.store);
    let config = LongitudinalConfig::default()
        .crawl(CrawlConfig::with_workers(workers))
        .ttl(LONG_TTL, Duration::ZERO);

    let (mut walker, mut fleet) = build_walker(&store, backend);
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
    batch.apply(&store);
    if backend != BackendKind::Memory {
        (walker, fleet) = build_walker(&store, backend);
    }
    engine.deliver(ZoneDelta::new(batch.domains(), || {}));
    let report = engine.step(&walker, MONTH);
    assert!(report.recrawled >= 1, "churn must re-crawl something");
    assert_eq!(report.expired_domains, 0, "long TTLs must not expire");
    let after_epoch1 = snapshot(&engine);

    // Epoch 2: the batch lands mid-crawl, racing the step.
    let batch = sim.next_epoch();
    batch.apply(&store);
    if backend != BackendKind::Memory {
        (walker, fleet) = build_walker(&store, backend);
    }
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

    drop(fleet);
    (after_epoch1, after_flush)
}

#[test]
fn churned_state_is_byte_identical_across_workers_and_backends() {
    let (ref_epoch1, ref_flush) = run_scenario(1, BackendKind::Memory);

    // The reference itself must match a from-scratch recompute of the
    // final churned zone before it judges anyone else.
    {
        let population = Population::build(PopulationConfig {
            scale: Scale::stress(),
            seed: SEED,
        });
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

    for backend in [BackendKind::Memory, BackendKind::Wire] {
        for workers in [1usize, 4, 32] {
            if (workers, backend) == (1, BackendKind::Memory) {
                continue;
            }
            let (epoch1, flush) = run_scenario(workers, backend);
            assert_eq!(
                epoch1, ref_epoch1,
                "epoch-1 state diverged at workers={workers} backend={backend:?}"
            );
            assert_eq!(
                flush, ref_flush,
                "post-flush state diverged at workers={workers} backend={backend:?}"
            );
        }
    }
}
