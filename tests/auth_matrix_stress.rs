//! Layered auth-matrix determinism under stress: the serialized
//! [`AuthMatrix`] must be *byte-identical* across workers {1, 4, 32} ×
//! every evaluator (interpreted, cached, compiled),
//! and between the in-memory and wire resolver substrates, at scale
//! 1:500 — and its embedded SPF sub-matrix must be byte-identical to
//! the bare-row fold (every domain's row evaluated with no pool, verdict
//! cache or compiler, folded in input order) for the same inputs.
//!
//! The matrix is merged from per-worker tallies whose content depends on
//! which worker evaluated which domain, and the cached path replays
//! memoized subtree verdicts instead of walking them — the suite pins
//! DESIGN.md §8's claim that neither scheduling freedom nor the cache is
//! observable in the report.

use lazy_gatekeepers::crawler::DEFAULT_BATCH_SIZE;
use lazy_gatekeepers::prelude::*;
use spf_dns::{DnsError, LookupOutcome, RecordType, RrSet, ZoneFault};
use spf_testkit::{engine_config, world_at};
use std::sync::{Arc, Mutex};

fn auth_json<R: Resolver>(
    resolver: &R,
    world: &SpoofWorld,
    vantages: &[VantagePoint],
    config: CrawlConfig,
) -> String {
    let (matrix, _) = auth_matrix(resolver, &world.domains, vantages, config);
    if let Err(law) = matrix.check_conservation() {
        panic!("auth matrix conservation broken [{config:?}]: {law}");
    }
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
        engine_config(1, Evaluator::Interpreted),
    );
    assert!(reference.contains("\"residual_spoofable\""));
    assert!(reference.contains("\"spoofable_shared\""));
    for workers in [1usize, 4, 32] {
        for evaluator in Evaluator::ALL {
            if (workers, evaluator) == (1, Evaluator::Interpreted) {
                continue;
            }
            let json = auth_json(
                &resolver,
                &world,
                &vantages,
                engine_config(workers, evaluator),
            );
            assert!(
                json == reference,
                "+{evaluator} v2 diverged at workers={workers}"
            );
        }
    }
}

/// A resolver that forwards to `inner` and keeps every timeout `zone`
/// does not explain. The world sets timeout faults on some names, and
/// the wire servers stay silent for those just as the zone resolver
/// times out; any other timeout is a name the servers answer that a
/// loaded host let the client give up on.
struct UnexplainedTimeouts<'a, R> {
    inner: &'a R,
    zone: &'a ZoneStore,
    seen: Mutex<Vec<(DomainName, RecordType)>>,
}

impl<R: Resolver> Resolver for UnexplainedTimeouts<'_, R> {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<RrSet, DnsError> {
        let answer = self.inner.query(name, rtype);
        if matches!(answer, Err(DnsError::Timeout))
            && !matches!(
                self.zone.lookup(name, rtype),
                LookupOutcome::Fault(ZoneFault::Timeout)
            )
        {
            self.seen.lock().unwrap().push((name.clone(), rtype));
        }
        answer
    }
}

#[test]
fn auth_matrix_byte_identical_between_wire_and_memory() {
    let (world, vantages) = world_at(500);
    let memory_resolver = ZoneResolver::new(Arc::clone(&world.store));
    let reference = auth_json(
        &memory_resolver,
        &world,
        &vantages,
        engine_config(1, Evaluator::Interpreted),
    );
    let (workers, servers) = (32usize, 4usize);
    let fleet =
        WireFleet::spawn(&world.store, servers, ServerConfig::default()).expect("fleet spawns");
    let resolver = Arc::new(fleet.resolver(WireClientConfig::crawl()));
    let checked = UnexplainedTimeouts {
        inner: &*resolver,
        zone: &world.store,
        seen: Mutex::default(),
    };
    let wire = auth_json(
        &checked,
        &world,
        &vantages,
        CrawlConfig::with_workers(workers),
    );
    // A query that timed out under host load answers `temperror`, which
    // the byte comparison would report as a divergence: name it first.
    // (The zone's own timeout faults are the snapshot's `temp_errors`
    // otherwise: 21 at this scale and seed.)
    let unexplained = checked.seen.into_inner().unwrap();
    let snapshot = resolver.snapshot();
    assert!(
        unexplained.is_empty(),
        "{} queries timed out under load, first {:?}: {snapshot:?}",
        unexplained.len(),
        unexplained.first()
    );
    assert!(
        wire == reference,
        "wire v2 matrix diverged at workers={workers} servers={servers}"
    );
}

#[test]
fn spf_submatrix_byte_identical_to_bare_row_fold_at_scale() {
    let (world, vantages) = world_at(500);
    let resolver = ZoneResolver::new(Arc::clone(&world.store));
    let bare = bare_row_fold(&resolver, &world.domains, &vantages, &EvalPolicy::default());
    let bare_json = serde_json::to_string(&bare).expect("bare fold serializes");
    for workers in [1usize, 4, 32] {
        let (auth, _) = auth_matrix(
            &resolver,
            &world.domains,
            &vantages,
            CrawlConfig::with_workers(workers),
        );
        assert_eq!(auth.check_conservation(), Ok(()), "workers={workers}");
        assert!(
            serde_json::to_string(&auth.spf).expect("auth.spf serializes") == bare_json,
            "SPF sub-matrix diverged from the bare-row fold at workers={workers}"
        );
    }
}

#[test]
fn queue_depth_stays_bounded() {
    let (world, vantages) = world_at(2_000);
    let resolver = ZoneResolver::new(Arc::clone(&world.store));
    let config = CrawlConfig::with_workers(4);
    let (matrix, stats) = auth_matrix(&resolver, &world.domains, &vantages, config);
    assert_eq!(matrix.check_conservation(), Ok(()));
    let stats = stats.engine;
    // A worker holds one batch at a time: the crawl engine's dispatch
    // bound, far below the population.
    assert!(stats.peak_queue_depth >= 1);
    assert!(
        stats.peak_queue_depth <= 4 * DEFAULT_BATCH_SIZE,
        "peak {} > workers × DEFAULT_BATCH_SIZE",
        stats.peak_queue_depth
    );
    assert_eq!(
        stats.batches,
        world.domains.len().div_ceil(DEFAULT_BATCH_SIZE) as u64
    );
    assert!(stats.evals_per_sec() > 0.0);
    assert!(stats.cache_hit_rate() > 0.0);
}
