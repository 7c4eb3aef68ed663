//! Layered auth-matrix (matrix v2) determinism under stress, mirroring
//! the v1 grid in `spoof_matrix_stress.rs`: the serialized
//! [`AuthMatrix`] must be *byte-identical* across workers {1, 4, 32} ×
//! verdict cache {on, off} and between the in-memory and wire
//! resolver substrates, at scale 1:500 — and its embedded
//! SPF sub-matrix must be byte-identical to the v1 [`SpoofMatrix`] for
//! the same inputs (the DESIGN.md §13 safety rail, at population
//! scale, over real sockets).

use lazy_gatekeepers::prelude::*;
use spf_netsim::wirelab;
use std::sync::Arc;

const SEED: u64 = 0x5bf1_2023;

/// The world plus its vantage set, built once per scale (vantage
/// selection is deterministic, so every configuration shares it).
fn world_at(denominator: u64) -> (SpoofWorld, Vec<VantagePoint>) {
    let world = build_spoof_world(Scale { denominator }, SEED);
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&world.store)));
    let out = crawl(&walker, &world.domains, CrawlConfig::with_workers(4));
    let weighted = out.coverage.into_weighted();
    let providers: Vec<ProviderVantage> = world
        .providers
        .iter()
        .take(2)
        .map(|p| ProviderVantage {
            label: format!("hosting{}", p.id),
            web: p.web_ip,
            mta: p.mta_ip,
        })
        .collect();
    let vantages = select_vantages(&weighted, &providers, 2, 1, SEED);
    (world, vantages)
}

fn auth_json<R: Resolver>(
    resolver: &R,
    world: &SpoofWorld,
    vantages: &[VantagePoint],
    config: SpoofMatrixConfig,
) -> String {
    let (matrix, _) = auth_matrix(resolver, &world.domains, vantages, config);
    serde_json::to_string(&matrix).expect("auth matrix serializes")
}

#[test]
fn auth_matrix_byte_identical_across_worker_and_cache_grid() {
    let (world, vantages) = world_at(500);
    let resolver = ZoneResolver::new(Arc::clone(&world.store));
    let reference = auth_json(
        &resolver,
        &world,
        &vantages,
        SpoofMatrixConfig::with_workers(1).cached(false),
    );
    assert!(reference.contains("\"residual_spoofable\""));
    for workers in [1usize, 4, 32] {
        let cached = auth_json(
            &resolver,
            &world,
            &vantages,
            SpoofMatrixConfig::with_workers(workers),
        );
        assert!(
            cached == reference,
            "cached v2 diverged at workers={workers}"
        );
    }
    let uncached = auth_json(
        &resolver,
        &world,
        &vantages,
        SpoofMatrixConfig::with_workers(32).cached(false),
    );
    assert!(uncached == reference, "uncached v2 diverged at workers=32");
}

#[test]
fn auth_matrix_byte_identical_between_wire_and_memory() {
    let (world, vantages) = world_at(500);
    let memory_resolver = ZoneResolver::new(Arc::clone(&world.store));
    let reference = auth_json(
        &memory_resolver,
        &world,
        &vantages,
        SpoofMatrixConfig::with_workers(1).cached(false),
    );
    let (workers, servers) = (32usize, 4usize);
    let fleet =
        WireFleet::spawn(&world.store, servers, ServerConfig::default()).expect("fleet spawns");
    let resolver = Arc::new(
        fleet
            .resolver(WireClientConfig::crawl())
            .with_behaviors(wirelab::zero_faults(servers), SEED),
    );
    let wire = auth_json(
        &*resolver,
        &world,
        &vantages,
        SpoofMatrixConfig::with_workers(workers),
    );
    assert!(
        wire == reference,
        "wire v2 matrix diverged at workers={workers} servers={servers}"
    );
}

#[test]
fn spf_submatrix_byte_identical_to_v1_at_scale() {
    let (world, vantages) = world_at(500);
    let resolver = ZoneResolver::new(Arc::clone(&world.store));
    #[allow(deprecated)]
    let (v1, _) = spoof_matrix(
        &resolver,
        &world.domains,
        &vantages,
        SpoofMatrixConfig::with_workers(4),
    );
    let v1_json = serde_json::to_string(&v1).expect("v1 serializes");
    for workers in [1usize, 4, 32] {
        let (v2, _) = auth_matrix(
            &resolver,
            &world.domains,
            &vantages,
            SpoofMatrixConfig::with_workers(workers),
        );
        assert!(
            serde_json::to_string(&v2.spf).expect("v2.spf serializes") == v1_json,
            "v2 SPF sub-matrix diverged from v1 at workers={workers}"
        );
    }
}
