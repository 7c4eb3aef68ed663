//! Compiled-backend correctness under stress (ISSUE 7's acceptance
//! matrix): a verdict served from a compiled interval matcher must be
//! *byte-identical* to bare `check_host` everywhere the population is
//! evaluated — the spoofability matrix across workers {1, 4, 32} on
//! both resolver substrates (in-memory and wire), and the resident
//! service across workers {1, 4, 32} × UDP vs TCP, at scale 1:500 —
//! plus the staleness bound: a compiled policy whose TTL has expired is
//! recompiled against the mutated zone, never served.
//!
//! The compiled path takes a radically different road from the
//! evaluator it replaces: a one-time symbolic compile over each
//! address family's full space, then per-query binary search in a
//! qualifier-tagged range table, with typed residues falling back to
//! the live engine. The grid pins DESIGN.md §10's claim that none of
//! that — compilation, table dispatch, fallback split, scheduling,
//! transport — is observable in any verdict byte.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;

use lazy_gatekeepers::bench::service_lab;
use lazy_gatekeepers::dns::VirtualClock;
use lazy_gatekeepers::prelude::*;
use lazy_gatekeepers::service::{
    QuerySpec, ServiceClient, ServiceConfig, Status, Transport, TtlLruConfig, VerdictService,
};
use spf_netsim::wirelab;

const SEED: u64 = 0x5bf1_2023;
const SENDER: &str = "stress";

/// The world plus its vantage set, built once per scale (vantage
/// selection is deterministic, so every configuration shares it).
fn world_at(denominator: u64) -> (SpoofWorld, Vec<VantagePoint>) {
    let world = build_spoof_world(Scale { denominator }, SEED);
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&world.store)));
    let out = crawl(&walker, &world.domains, CrawlConfig::with_workers(4));
    let weighted = out.coverage.into_weighted();
    // A trimmed vantage set (2 shared + 2 providers ×2 + 1 control = 7):
    // what this suite stresses is the backend × workers × substrate
    // grid, and per-vantage work only scales the wall clock.
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

fn matrix_json<R: Resolver>(
    resolver: &R,
    world: &SpoofWorld,
    vantages: &[VantagePoint],
    config: SpoofMatrixConfig,
) -> String {
    #[allow(deprecated)]
    let (matrix, _) = spoof_matrix(resolver, &world.domains, vantages, config);
    serde_json::to_string(&matrix).expect("matrix serializes")
}

#[test]
fn compiled_matrix_byte_identical_across_memory_grid() {
    let (world, vantages) = world_at(500);
    let resolver = ZoneResolver::new(Arc::clone(&world.store));
    // The reference is the bare engine: one worker, no verdict cache,
    // no compiler — every cell walked by plain `check_host`.
    let reference = matrix_json(
        &resolver,
        &world,
        &vantages,
        SpoofMatrixConfig::with_workers(1).cached(false),
    );
    assert!(reference.contains("\"spoofable_shared\""));
    for workers in [1usize, 4, 32] {
        let compiled = matrix_json(
            &resolver,
            &world,
            &vantages,
            SpoofMatrixConfig::with_workers(workers).compiled(true),
        );
        assert!(
            compiled == reference,
            "compiled matrix diverged at workers={workers}"
        );
        // The compiled backend with the residue-fallback memo *off*:
        // residual regions go through plain `check_host` instead, and
        // the bytes still must not move.
        let compiled_uncached = matrix_json(
            &resolver,
            &world,
            &vantages,
            SpoofMatrixConfig::with_workers(workers)
                .compiled(true)
                .cached(false),
        );
        assert!(
            compiled_uncached == reference,
            "compiled+uncached matrix diverged at workers={workers}"
        );
    }

    // The compiled run must actually exercise the fast path (a backend
    // that silently fell back everywhere would pass the identity grid
    // vacuously) and classify every domain.
    #[allow(deprecated)]
    let (_, stats) = spoof_matrix(
        &resolver,
        &world.domains,
        &vantages,
        SpoofMatrixConfig::with_workers(4).compiled(true),
    );
    let compiler = stats.compiler.expect("compiled run reports stats");
    assert_eq!(compiler.domains_compiled, world.domains.len() as u64);
    assert_eq!(
        compiler.full + compiler.partial + compiler.residual,
        compiler.domains_compiled
    );
    assert!(
        compiler.compiled_verdicts > 0,
        "no verdict came from the tables: {compiler:?}"
    );
    // The subtree memo's conservation law, and proof that sharing
    // happened: far fewer targets compiled than recursions answered.
    let subtrees = stats
        .subtrees
        .expect("compiled + cached run reports the memo");
    assert_eq!(subtrees.composed + subtrees.fallbacks, subtrees.lookups);
    assert!(subtrees.compiles <= subtrees.lookups, "{subtrees:?}");
    assert!(subtrees.composed > subtrees.compiles, "{subtrees:?}");
    // Composition charges a subtree's standalone queries whoever
    // compiled it, so the counters do not depend on the schedule.
    #[allow(deprecated)]
    let (_, serial) = spoof_matrix(
        &resolver,
        &world.domains,
        &vantages,
        SpoofMatrixConfig::with_workers(1).compiled(true),
    );
    assert_eq!(serial.compiler, Some(compiler));
}

/// The matrix grid sees a policy through a handful of vantage
/// addresses. Here every domain of the population is compiled through
/// one shared [`spf_core::SubtreeMemo`] and without one, and the two
/// policies are compared as functions of the address: at the first and
/// last address of every row of both tables, both families.
#[test]
fn shared_compiles_are_the_direct_compiles_function_across_the_population() {
    use spf_core::{compile_policy_shared, CompileConfig, SubtreeMemo};
    let world = build_spoof_world(Scale { denominator: 2000 }, SEED);
    let resolver = ZoneResolver::new(Arc::clone(&world.store));
    let config = CompileConfig::default();
    let memo = SubtreeMemo::new();
    let mut probes = 0u64;
    for domain in &world.domains {
        let shared = compile_policy_shared(&resolver, domain, &config, &memo);
        let direct = compile_policy(&resolver, domain, &config);
        shared.assert_invariants();
        assert_eq!(shared.compilability(), direct.compilability(), "{domain}");
        let residues = |p: &CompiledPolicy| -> std::collections::HashSet<spf_core::Residue> {
            p.residues().iter().cloned().collect()
        };
        assert_eq!(residues(&shared), residues(&direct), "{domain}");
        for (lo, hi) in shared.row_bounds().chain(direct.row_bounds()) {
            for ip in [lo, hi] {
                assert_eq!(shared.verdict(ip), direct.verdict(ip), "{domain} from {ip}");
                probes += 1;
            }
        }
    }
    let stats = memo.stats();
    assert_eq!(stats.composed + stats.fallbacks, stats.lookups);
    assert!(stats.fallbacks > 0, "no entry state bit: {stats:?}");
    assert!(stats.composed > 10 * stats.compiles, "{stats:?}");
    assert!(probes > 100_000, "{probes} probes");
}

#[test]
fn compiled_matrix_byte_identical_between_wire_and_memory() {
    let (world, vantages) = world_at(500);
    let memory_resolver = ZoneResolver::new(Arc::clone(&world.store));
    let reference = matrix_json(
        &memory_resolver,
        &world,
        &vantages,
        SpoofMatrixConfig::with_workers(1).cached(false),
    );
    // The compiler's own DNS queries (symbolic walk, both families) go
    // over real UDP/TCP sockets here, like every crawl query.
    let (workers, servers) = (32usize, 4usize);
    let fleet =
        WireFleet::spawn(&world.store, servers, ServerConfig::default()).expect("fleet spawns");
    let resolver = Arc::new(
        fleet
            .resolver(WireClientConfig::crawl())
            .with_behaviors(wirelab::zero_faults(servers), SEED),
    );
    let wire = matrix_json(
        &*resolver,
        &world,
        &vantages,
        SpoofMatrixConfig::with_workers(workers).compiled(true),
    );
    assert!(
        wire == reference,
        "compiled wire matrix diverged at workers={workers} servers={servers}"
    );
}

/// One query plus the bare-`check_host` JSON the service must echo.
type Expected = (QuerySpec, String);

/// Every `(domain × vantage)` pair at the given scale, with its
/// reference verdict evaluated *uncached* through the plain resolver.
fn pairs_with_reference(
    lab: &lazy_gatekeepers::bench::ServiceLab,
    vantage_ips: &[IpAddr],
) -> Vec<Expected> {
    let resolver = ZoneResolver::new(Arc::clone(&lab.store));
    let policy = EvalPolicy::default();
    let mut items = Vec::with_capacity(lab.domains.len() * vantage_ips.len());
    for domain in &lab.domains {
        for ip in vantage_ips {
            let ctx = EvalContext::mail_from(*ip, SENDER, domain.clone());
            let eval = check_host(&resolver, &ctx, domain, &policy);
            let json = serde_json::to_string(&eval).expect("evaluation serializes");
            items.push((
                QuerySpec {
                    ip: *ip,
                    domain: domain.clone(),
                    sender_local: SENDER.to_string(),
                    stack: false,
                },
                json,
            ));
        }
    }
    items
}

/// Replay `items` through a connected client and byte-compare every
/// response body against its reference JSON.
fn replay(addr: std::net::SocketAddr, transport: Transport, items: &[Expected], label: &str) {
    let mut client = ServiceClient::connect(addr, transport).expect("client connects");
    for chunk in items.chunks(2048) {
        let specs: Vec<QuerySpec> = chunk.iter().map(|(spec, _)| spec.clone()).collect();
        let responses = client
            .run(&specs, 64, None)
            .unwrap_or_else(|e| panic!("run failed [{label}]: {e}"));
        assert_eq!(responses.len(), specs.len(), "response count [{label}]");
        for (response, (spec, expected)) in responses.iter().zip(chunk) {
            assert_eq!(
                response.status,
                Status::Ok,
                "non-ok verdict for {} from {} [{label}]",
                spec.domain,
                spec.ip
            );
            assert!(
                response.body == expected.as_bytes(),
                "verdict diverged for {} from {} [{label}]:\n served: {}\n   bare: {}",
                spec.domain,
                spec.ip,
                String::from_utf8_lossy(&response.body),
                expected
            );
        }
    }
}

/// After `shutdown` the counters must balance: one store probe per
/// query, one table-or-fallback classification per evaluated query,
/// one latency sample each, and what the listener did not answer from
/// the tables a worker did.
fn assert_conservation(service: &VerdictService, label: &str) {
    let telemetry = service.telemetry();
    if let Err(law) = telemetry.check_conservation() {
        panic!("conservation broken [{label}]: {law}");
    }
}

#[test]
fn compiled_service_verdicts_byte_identical_to_bare_check_host() {
    let lab = service_lab(500, SEED, 4);
    // A trimmed vantage set (every 3rd of the selected 18), as in
    // service_stress: the grid stresses workers × transport with the
    // compiled store in front, per-vantage work only scales wall clock.
    let vantage_ips: Vec<IpAddr> = lab.vantage_ips.iter().copied().step_by(3).collect();
    assert!(vantage_ips.len() >= 4, "vantage selection shrank");
    let items = pairs_with_reference(&lab, &vantage_ips);
    assert!(items.len() > 100_000, "population shrank: {}", items.len());
    let resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&lab.store)));

    // The grid: each cell replays a distinct 1-in-6 stride of the pair
    // list, so the six offsets rotate through the cells and the full
    // replay below still covers every pair.
    let mut cell = 0usize;
    for workers in [1usize, 4, 32] {
        for transport in [Transport::Udp, Transport::Tcp] {
            let label = format!("compiled workers={workers} transport={transport}");
            let config =
                ServiceConfig::with_workers(workers).compiled(Some(TtlLruConfig::default()));
            let mut service =
                VerdictService::spawn(Arc::clone(&resolver), config).expect("service spawns");
            let slice: Vec<Expected> = items.iter().skip(cell % 6).step_by(6).cloned().collect();
            replay(service.addr(), transport, &slice, &label);
            let telemetry = service.telemetry();
            let compiler = telemetry.compiled.expect("compiled backend reports stats");
            assert!(
                compiler.compiled_verdicts > 0,
                "no verdict came from the tables [{label}]: {compiler:?}"
            );
            let store = telemetry.compiled_cache.expect("compiled store reports");
            assert!(store.is_consistent(), "[{label}]: {store:?}");
            service.shutdown();
            assert_conservation(&service, &label);
            cell += 1;
        }
    }

    // Full replay — every pair over TCP at 32 workers through the
    // compiled store *and* the verdict memo together: the two caches
    // must compose without a byte moving.
    let mut service = VerdictService::spawn(
        Arc::clone(&resolver),
        ServiceConfig::with_workers(32).compiled(Some(TtlLruConfig::default())),
    )
    .expect("service spawns");
    replay(service.addr(), Transport::Tcp, &items, "compiled full tcp");
    let telemetry = service.telemetry();
    assert_eq!(telemetry.served, items.len() as u64, "{telemetry:?}");
    service.shutdown();
    assert_conservation(&service, "compiled full tcp");
    // The replay must exercise both halves of the ladder (a service
    // that queued everything would pass the identity check with the
    // inline path untested): a domain's first vantage compiles on a
    // worker, later ones find the tables resident.
    let inline = service.telemetry().inline_served;
    assert!(
        0 < inline && inline < telemetry.served,
        "inline {inline}: {telemetry:?}"
    );
}

#[test]
fn expired_compiled_policy_is_recompiled_against_the_mutated_zone() {
    // The compiled store memoizes whole *policies* keyed by query
    // domain; mutating a record deep in the tree (an included zone)
    // must become visible the tick its TTL runs out — serving the stale
    // compiled tables past expiry would be the compiled analogue of the
    // memo bug `service_stress` pins.
    let store = Arc::new(ZoneStore::new());
    let domain = DomainName::parse("example.com").expect("domain parses");
    let included = DomainName::parse("alias.example.net").expect("domain parses");
    store.add_txt(&domain, "v=spf1 include:alias.example.net -all");
    store.add_txt(&included, "v=spf1 ip4:192.0.2.0/24 -all");
    let ip: IpAddr = "192.0.2.7".parse().expect("ip parses");
    let clock = Arc::new(VirtualClock::new());
    let ttl = Duration::from_secs(60);
    let resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&store)));
    // Verdict memo off: every within-TTL replay below is attributable
    // to the compiled store alone.
    let mut service = VerdictService::spawn_at(
        resolver,
        ServiceConfig::with_workers(1)
            .cache(None)
            .compiled(Some(TtlLruConfig::new(1024, ttl))),
        Arc::clone(&clock) as Arc<dyn lazy_gatekeepers::dns::Clock>,
    )
    .expect("service spawns");
    let mut client = ServiceClient::connect(service.addr(), Transport::Udp).expect("connects");

    let bare = |store: &Arc<ZoneStore>| {
        let resolver = ZoneResolver::new(Arc::clone(store));
        let ctx = EvalContext::mail_from(ip, SENDER, domain.clone());
        serde_json::to_string(&check_host(
            &resolver,
            &ctx,
            &domain,
            &EvalPolicy::default(),
        ))
        .expect("serializes")
    };

    let before = bare(&store);
    let first = client.query(ip, &domain, SENDER).expect("query");
    assert_eq!(first.status, Status::Ok);
    assert!(first.body == before.as_bytes(), "first verdict diverged");

    // Mutate the included zone: the compiled tables may legitimately be
    // served (DNS-style) until the policy's TTL runs out ...
    store.replace_txt(&included, "v=spf1 -all");
    let after = bare(&store);
    assert_ne!(before, after, "mutation must change the verdict");
    let stale = client.query(ip, &domain, SENDER).expect("query");
    assert!(
        stale.body == before.as_bytes(),
        "within-TTL query must serve the resident compiled policy"
    );

    // ... but one tick past expiry the stale tables must never answer:
    // the store drops the entry on probe and the worker recompiles
    // against the mutated zone.
    clock.advance(ttl + Duration::from_secs(1));
    let fresh = client.query(ip, &domain, SENDER).expect("query");
    assert_eq!(fresh.status, Status::Ok);
    assert!(
        fresh.body == after.as_bytes(),
        "expired compiled policy served stale: {}",
        String::from_utf8_lossy(&fresh.body)
    );

    let telemetry = service.telemetry();
    let compiler = telemetry.compiled.expect("compiled backend reports stats");
    // Two compiles (initial + post-expiry), all three answers from the
    // tables (the example record is fully static).
    assert_eq!(compiler.domains_compiled, 2, "{compiler:?}");
    assert_eq!(compiler.compiled_verdicts, 3, "{compiler:?}");
    let stats = telemetry.compiled_cache.expect("compiled store reports");
    assert!(stats.expirations >= 1, "{stats:?}");
    assert!(stats.is_consistent(), "{stats:?}");
    service.shutdown();
    assert_conservation(&service, "compiled ttl expiry");
    // First query and post-expiry query compiled on a worker; the
    // within-TTL one in between was the listener's.
    assert_eq!(service.telemetry().inline_served, 1);
}
