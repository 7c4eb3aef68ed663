//! Verdict-service correctness under stress (ISSUE 6's acceptance bar):
//! every response the resident daemon serves over real sockets must be
//! *byte-identical* to what bare `check_host` returns for the same
//! `(client-ip, domain, sender)` triple against the same zones — across
//! workers {1, 4, 32} × verdict cache {on, off, tiny-forcing-eviction}
//! × UDP vs TCP, at scale 1:500.
//!
//! The service's answer takes a longer road than the bare call: socket
//! decode → bounded queue → worker pool → TTL/LRU memo → serialize →
//! socket encode. The grid pins that none of those layers is observable
//! in the verdict. Companion tests pin the daemon's failure envelope:
//! queue overflow yields a *typed* `Overloaded` response (never a
//! dropped datagram), shutdown drains every admitted query, and a
//! TTL-expired memo entry is never served — expiry revalidates against
//! the mutated zone.

use std::net::{IpAddr, UdpSocket};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lazy_gatekeepers::bench::{service_lab, ServiceLab};
use lazy_gatekeepers::dns::{
    DnsError, RecordType, Resolver, ResourceRecord, VirtualClock, ZoneResolver, ZoneStore,
};
use lazy_gatekeepers::prelude::{check_host, DomainName, EvalContext, EvalPolicy};
use lazy_gatekeepers::service::proto::{decode_datagram, encode_frame};
use lazy_gatekeepers::service::{
    Frame, QueryFrame, QuerySpec, ServiceClient, ServiceConfig, Status, Transport, TtlLruConfig,
    VerdictService,
};

const SEED: u64 = 0x5bf1_2023;
const SENDER: &str = "stress";

/// One query plus the bare-`check_host` JSON the service must echo.
type Expected = (QuerySpec, String);

/// Every `(domain × vantage)` pair at the given scale, with its
/// reference verdict evaluated *uncached* through the plain resolver.
fn pairs_with_reference(lab: &ServiceLab, vantage_ips: &[IpAddr]) -> Vec<Expected> {
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

/// After `shutdown` — every admitted query answered, every thread
/// joined — the counters must balance: frames against dispositions,
/// evaluated queries against latency samples, nothing answered on the
/// listener by a service without compiled tables.
fn assert_conservation(service: &VerdictService, label: &str) {
    let telemetry = service.telemetry();
    if let Err(law) = telemetry.check_conservation() {
        panic!("conservation broken [{label}]: {law}");
    }
}

/// A verdict memo so small (64 entries over 4 stripes) that replaying
/// hundreds of thousands of distinct pairs evicts on nearly every
/// insert — the LRU-churn corner of the grid.
fn tiny_cache() -> TtlLruConfig {
    TtlLruConfig::new(64, Duration::from_secs(300)).shards(4)
}

#[test]
fn served_verdicts_byte_identical_to_bare_check_host() {
    let lab = service_lab(500, SEED, 4);
    // A trimmed vantage set (every 3rd of the selected 18): what the
    // grid stresses is workers × cache × transport, and per-vantage
    // work only scales the wall clock (the spoof-matrix suite applies
    // the same trim for the same reason).
    let vantage_ips: Vec<IpAddr> = lab.vantage_ips.iter().copied().step_by(3).collect();
    assert!(vantage_ips.len() >= 4, "vantage selection shrank");
    let items = pairs_with_reference(&lab, &vantage_ips);
    assert!(items.len() > 100_000, "population shrank: {}", items.len());
    let resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&lab.store)));

    // The full grid. Each cell replays a distinct 1-in-12 stride of the
    // pair list (the full-replay passes below cover every pair), so the
    // twelve offsets rotate through the cells and every cell still sees
    // tens of thousands of queries.
    let caches: [(&str, Option<TtlLruConfig>); 3] = [
        ("on", Some(TtlLruConfig::default())),
        ("off", None),
        ("tiny", Some(tiny_cache())),
    ];
    let mut cell = 0usize;
    for workers in [1usize, 4, 32] {
        for (cache_label, cache) in &caches {
            for transport in [Transport::Udp, Transport::Tcp] {
                let label = format!("workers={workers} cache={cache_label} transport={transport}");
                let config = ServiceConfig::with_workers(workers).cache(cache.clone());
                let mut service =
                    VerdictService::spawn(Arc::clone(&resolver), config).expect("service spawns");
                let slice: Vec<Expected> =
                    items.iter().skip(cell % 12).step_by(12).cloned().collect();
                replay(service.addr(), transport, &slice, &label);
                // The satellite-3 pin, exercised live: after concurrent
                // load the memo's stripe counters must sum consistently.
                if let Some(stripes) = service.cache_stripe_stats() {
                    let merged = stripes.iter().fold(
                        lazy_gatekeepers::service::TtlLruStats::default(),
                        |acc, s| acc.merged(s),
                    );
                    assert!(
                        merged.is_consistent(),
                        "stripe counters inconsistent [{label}]: {merged:?}"
                    );
                }
                service.shutdown();
                assert_conservation(&service, &label);
                cell += 1;
            }
        }
    }

    // Full replay A — every pair over UDP through the default cache.
    let mut service = VerdictService::spawn(Arc::clone(&resolver), ServiceConfig::with_workers(4))
        .expect("service spawns");
    replay(service.addr(), Transport::Udp, &items, "full udp cache=on");
    let telemetry = service.telemetry();
    // `>=`: the UDP client retransmits after 250 ms and duplicate jobs
    // are evaluated (idempotently) and counted.
    assert!(telemetry.served >= items.len() as u64, "{telemetry:?}");
    service.shutdown();
    assert_conservation(&service, "full udp cache=on");

    // Full replay B — every pair over TCP at 32 workers through the
    // tiny memo: constant LRU eviction under maximum concurrency.
    let mut service = VerdictService::spawn(
        Arc::clone(&resolver),
        ServiceConfig::with_workers(32).cache(Some(tiny_cache())),
    )
    .expect("service spawns");
    replay(
        service.addr(),
        Transport::Tcp,
        &items,
        "full tcp cache=tiny",
    );
    let telemetry = service.telemetry();
    assert_eq!(telemetry.served, items.len() as u64, "{telemetry:?}");
    let stats = telemetry.cache.expect("cache configured");
    assert!(stats.evictions > 0, "tiny cache never evicted: {stats:?}");
    assert!(stats.is_consistent(), "{stats:?}");
    service.shutdown();
    assert_conservation(&service, "full tcp cache=tiny");
}

/// A resolver that parks every query on a condvar while the gate is
/// closed — the deterministic way to hold a worker mid-evaluation and
/// fill the request queue behind it.
struct GatedResolver {
    inner: ZoneResolver,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl GatedResolver {
    fn closed(store: Arc<ZoneStore>) -> (GatedResolver, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(true), Condvar::new()));
        (
            GatedResolver {
                inner: ZoneResolver::new(store),
                gate: Arc::clone(&gate),
            },
            gate,
        )
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cvar) = &**gate;
    *lock.lock().expect("gate lock") = false;
    cvar.notify_all();
}

impl Resolver for GatedResolver {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        let (lock, cvar) = &*self.gate;
        let mut blocked = lock.lock().expect("gate lock");
        while *blocked {
            blocked = cvar.wait(blocked).expect("gate wait");
        }
        drop(blocked);
        self.inner.query(name, rtype)
    }
}

/// One-record world for the failure-envelope tests.
fn tiny_world() -> (Arc<ZoneStore>, DomainName, IpAddr) {
    let store = Arc::new(ZoneStore::new());
    let domain = DomainName::parse("example.com").expect("domain parses");
    store.add_txt(&domain, "v=spf1 ip4:192.0.2.0/24 -all");
    (store, domain, "192.0.2.7".parse().expect("ip parses"))
}

/// Raw UDP send of one query frame (no client retransmit machinery, so
/// counters stay exact).
fn send_query(socket: &UdpSocket, addr: std::net::SocketAddr, id: u64, d: &DomainName, ip: IpAddr) {
    let frame = encode_frame(&Frame::Query(QueryFrame {
        id,
        ip,
        domain: d.clone(),
        sender_local: SENDER.to_string(),
        stack: false,
    }));
    socket.send_to(&frame, addr).expect("send_to");
}

/// Collect raw UDP responses until `deadline`, invoking `until` after
/// each receipt to decide whether to stop early.
fn collect_responses(
    socket: &UdpSocket,
    deadline: Instant,
    mut until: impl FnMut(&[(u64, Status, Vec<u8>)]) -> bool,
) -> Vec<(u64, Status, Vec<u8>)> {
    let mut out = Vec::new();
    let mut buf = [0u8; 32 * 1024];
    while Instant::now() < deadline {
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                let frame = decode_datagram(&buf[..len]).expect("well-formed response");
                if let Frame::Response(r) = frame {
                    out.push((r.id, r.status, r.body));
                    if until(&out) {
                        break;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if until(&out) {
                    break;
                }
            }
            Err(e) => panic!("recv failed: {e}"),
        }
    }
    out
}

#[test]
fn queue_overflow_yields_typed_overloaded_responses() {
    let (store, domain, ip) = tiny_world();
    let (resolver, gate) = GatedResolver::closed(Arc::clone(&store));
    // One worker parked on the gate, two queue slots behind it: the
    // fourth-and-later queries *must* overflow.
    let config = ServiceConfig::with_workers(1).queue_capacity(2).cache(None);
    let mut service = VerdictService::spawn(Arc::new(resolver), config).expect("service spawns");

    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("client socket");
    socket
        .set_read_timeout(Some(Duration::from_millis(25)))
        .expect("timeout");
    const QUERIES: u64 = 32;
    for id in 1..=QUERIES {
        send_query(&socket, service.addr(), id, &domain, ip);
    }
    // The overflow responses arrive immediately; the admitted ones hang
    // on the gate. Open it once the first typed overload is in hand.
    let mut opened = false;
    let responses = collect_responses(&socket, Instant::now() + Duration::from_secs(30), |seen| {
        if !opened && seen.iter().any(|(_, s, _)| *s == Status::Overloaded) {
            open_gate(&gate);
            opened = true;
        }
        seen.len() as u64 == QUERIES
    });
    assert_eq!(responses.len() as u64, QUERIES, "a query went unanswered");

    let ok: Vec<u64> = responses
        .iter()
        .filter(|(_, s, _)| *s == Status::Ok)
        .map(|(id, _, _)| *id)
        .collect();
    let overloaded = responses
        .iter()
        .filter(|(_, s, _)| *s == Status::Overloaded)
        .count() as u64;
    assert_eq!(ok.len() as u64 + overloaded, QUERIES, "{responses:?}");
    // At least the held job plus the two queue slots were admitted; the
    // worker dequeueing mid-burst can stretch that by a slot or two.
    assert!((2..=6).contains(&ok.len()), "admitted {} queries", ok.len());
    assert!(overloaded >= QUERIES - 6, "only {overloaded} overloads");

    // Admitted queries are answered with the *correct* verdict even
    // under overflow — byte-identical to the bare evaluation.
    let bare = ZoneResolver::new(store);
    let ctx = EvalContext::mail_from(ip, SENDER, domain.clone());
    let expected = serde_json::to_string(&check_host(&bare, &ctx, &domain, &EvalPolicy::default()))
        .expect("serializes");
    for (id, status, body) in &responses {
        if *status == Status::Ok {
            assert!(body == expected.as_bytes(), "verdict diverged for id {id}");
        }
    }

    let telemetry = service.telemetry();
    assert_eq!(telemetry.served, ok.len() as u64, "{telemetry:?}");
    assert_eq!(telemetry.overloaded, overloaded, "{telemetry:?}");
    service.shutdown();
    assert_conservation(&service, "queue overflow");
}

#[test]
fn shutdown_drains_admitted_queries_and_rejects_late_arrivals() {
    // The late-arrival half rides on a ~25 ms listener-exit window; the
    // drain half is deterministic. Retry the scenario a few times so a
    // scheduler hiccup around that window can't flake the suite.
    let mut saw_shutting_down = false;
    for _attempt in 0..3 {
        let rejected = drain_scenario();
        if rejected > 0 {
            saw_shutting_down = true;
            break;
        }
    }
    assert!(
        saw_shutting_down,
        "no late arrival ever drew a typed shutting-down response"
    );
}

/// Run one shutdown-drain scenario; returns how many typed
/// `ShuttingDown` responses the late arrivals drew. Panics if the drain
/// guarantee (every admitted query answered, correctly) is violated.
fn drain_scenario() -> u64 {
    let (store, domain, ip) = tiny_world();
    let (resolver, gate) = GatedResolver::closed(Arc::clone(&store));
    let config = ServiceConfig::with_workers(1)
        .queue_capacity(256)
        .cache(None);
    let service = VerdictService::spawn(Arc::new(resolver), config).expect("service spawns");
    let addr = service.addr();

    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("client socket");
    socket
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("timeout");
    const ADMITTED: u64 = 8;
    for id in 1..=ADMITTED {
        send_query(&socket, addr, id, &domain, ip);
    }
    // Wait until all eight frames are in (admitted or in the worker's
    // hand) before starting the shutdown.
    let arrival_deadline = Instant::now() + Duration::from_secs(10);
    while service.telemetry().udp_frames < ADMITTED {
        assert!(Instant::now() < arrival_deadline, "frames never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Shutdown blocks joining the parked worker until the gate opens;
    // run it on its own thread and keep the handle to get the service
    // (and its final telemetry) back.
    let shutdown_handle = std::thread::spawn(move || {
        let mut service = service;
        service.shutdown();
        service
    });

    // A steady stream of late arrivals: whichever ones land while the
    // listener is still draining get the typed shutting-down response;
    // ones after it exits get nothing (and are the reason the caller
    // retries rather than this being a hard single-shot assert).
    let mut late_id = 1_000u64;
    let stream_deadline = Instant::now() + Duration::from_millis(500);
    let mut responses: Vec<(u64, Status, Vec<u8>)> = Vec::new();
    let mut buf = [0u8; 32 * 1024];
    while Instant::now() < stream_deadline {
        send_query(&socket, addr, late_id, &domain, ip);
        late_id += 1;
        if let Ok((len, _)) = socket.recv_from(&mut buf) {
            if let Ok(Frame::Response(r)) = decode_datagram(&buf[..len]) {
                let stop = r.status == Status::ShuttingDown;
                responses.push((r.id, r.status, r.body));
                if stop {
                    break;
                }
            }
        }
    }

    // Let the drain finish and collect everything still owed to us.
    open_gate(&gate);
    let mut answered_ok = |seen: &[(u64, Status, Vec<u8>)]| {
        let ok_original = seen
            .iter()
            .chain(responses.iter())
            .filter(|(id, s, _)| *s == Status::Ok && *id <= ADMITTED)
            .count() as u64;
        ok_original == ADMITTED
    };
    let rest = collect_responses(
        &socket,
        Instant::now() + Duration::from_secs(30),
        &mut answered_ok,
    );
    responses.extend(rest);
    let service = shutdown_handle.join().expect("shutdown thread");

    // The drain guarantee: all eight admitted queries answered, with
    // the verdict bare `check_host` computes.
    let bare = ZoneResolver::new(store);
    let ctx = EvalContext::mail_from(ip, SENDER, domain.clone());
    let expected = serde_json::to_string(&check_host(&bare, &ctx, &domain, &EvalPolicy::default()))
        .expect("serializes");
    for id in 1..=ADMITTED {
        let body = responses
            .iter()
            .find(|(rid, s, _)| *rid == id && *s == Status::Ok)
            .map(|(_, _, body)| body)
            .unwrap_or_else(|| panic!("admitted query {id} was never answered"));
        assert!(body == expected.as_bytes(), "verdict diverged for id {id}");
    }

    let rejected = responses
        .iter()
        .filter(|(_, s, _)| *s == Status::ShuttingDown)
        .count() as u64;
    let telemetry = service.telemetry();
    assert_eq!(telemetry.shutdown_rejects, rejected, "{telemetry:?}");
    assert!(telemetry.served >= ADMITTED, "{telemetry:?}");
    assert_conservation(&service, "shutdown drain");
    rejected
}

#[test]
fn ttl_expiry_revalidates_against_the_mutated_zone() {
    // The memo layer caches include/redirect *subtrees* (the initial
    // domain's evaluation is the answer itself — see `check_host_cached`),
    // so the mutation that must stay invisible within the TTL and
    // visible after it targets the included record.
    let store = Arc::new(ZoneStore::new());
    let domain = DomainName::parse("example.com").expect("domain parses");
    let included = DomainName::parse("alias.example.net").expect("domain parses");
    store.add_txt(&domain, "v=spf1 include:alias.example.net -all");
    store.add_txt(&included, "v=spf1 ip4:192.0.2.0/24 -all");
    let ip: IpAddr = "192.0.2.7".parse().expect("ip parses");
    let clock = Arc::new(VirtualClock::new());
    let ttl = Duration::from_secs(60);
    let resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&store)));
    let mut service = VerdictService::spawn_at(
        resolver,
        ServiceConfig::with_workers(1).cache(Some(TtlLruConfig::new(1024, ttl))),
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

    // Mutate the included zone: the memoized subtree verdict may
    // legitimately be served (DNS-style) until its TTL runs out ...
    store.replace_txt(&included, "v=spf1 -all");
    let after = bare(&store);
    assert_ne!(before, after, "mutation must change the verdict");
    let stale = client.query(ip, &domain, SENDER).expect("query");
    assert!(
        stale.body == before.as_bytes(),
        "within-TTL query must replay the memo"
    );

    // ... but one tick past expiry, serving the stale verdict would be
    // a bug: the service must revalidate against the mutated zone.
    clock.advance(ttl + Duration::from_secs(1));
    let fresh = client.query(ip, &domain, SENDER).expect("query");
    assert_eq!(fresh.status, Status::Ok);
    assert!(
        fresh.body == after.as_bytes(),
        "expired entry served stale: {}",
        String::from_utf8_lossy(&fresh.body)
    );

    let stats = service.telemetry().cache.expect("cache configured");
    assert!(stats.expirations >= 1, "{stats:?}");
    assert!(stats.is_consistent(), "{stats:?}");
    service.shutdown();
    assert_conservation(&service, "memo ttl expiry");
}

#[test]
fn stacked_queries_compose_layers_and_keep_spf_byte_identical() {
    use lazy_gatekeepers::core::{DmarcDisposition, MtaStsMode, StopLayer};

    // Three deployment mixes: a hard-fail SPF domain (stopped at SPF
    // regardless of the upper layers), a softfail domain whose enforced
    // DMARC closes the gap, and a softfail domain with nothing above
    // SPF (residually spoofable).
    let store = Arc::new(ZoneStore::new());
    let bank = DomainName::parse("bank.example").expect("parses");
    store.add_txt(&bank, "v=spf1 ip4:192.0.2.0/24 -all");
    store.add_txt(
        &DomainName::parse("_dmarc.bank.example").expect("parses"),
        "v=DMARC1; p=reject",
    );
    store.add_txt(
        &DomainName::parse("_mta-sts.bank.example").expect("parses"),
        "v=STSv1; id=20230801; mode=enforce",
    );
    let mail = DomainName::parse("mail.example").expect("parses");
    store.add_txt(&mail, "v=spf1 ip4:192.0.2.0/24 ~all");
    store.add_txt(
        &DomainName::parse("_dmarc.mail.example").expect("parses"),
        "v=DMARC1; p=quarantine",
    );
    let shop = DomainName::parse("shop.example").expect("parses");
    store.add_txt(&shop, "v=spf1 ip4:192.0.2.0/24 ~all");

    let resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&store)));
    let mut service =
        VerdictService::spawn(resolver, ServiceConfig::with_workers(2)).expect("service spawns");
    let mut client =
        ServiceClient::connect(service.addr(), Transport::Tcp).expect("client connects");
    let attacker: IpAddr = "203.0.113.9".parse().expect("ip parses");

    // bank: hard fail — SPF is the stopping layer even with the full
    // stack deployed above it.
    let stacked = client
        .query_stacked(attacker, &bank, SENDER)
        .expect("stacked query");
    assert_eq!(stacked.status, Status::Ok);
    let outcome = stacked.auth_outcome().expect("stacked body decodes");
    assert_eq!(outcome.stop, StopLayer::Spf);
    assert!(matches!(outcome.dmarc, DmarcDisposition::Enforced { .. }));
    assert_eq!(outcome.mta_sts, MtaStsMode::Enforce);
    // A stacked body is not a plain verdict, and vice versa.
    assert!(stacked.evaluation().is_err());
    let plain = client.query(attacker, &bank, SENDER).expect("plain query");
    assert!(plain.auth_outcome().is_err());
    // The SPF component of the stacked body is byte-identical to the
    // plain response for the same query.
    let eval = plain.evaluation().expect("plain body decodes");
    assert_eq!(
        serde_json::to_string(&outcome.spf).expect("serializes"),
        serde_json::to_string(&eval).expect("serializes"),
    );

    // mail: softfail is inconclusive; the enforced DMARC policy is what
    // stops the aligned attacker.
    let outcome = client
        .query_stacked(attacker, &mail, SENDER)
        .expect("stacked query")
        .auth_outcome()
        .expect("decodes");
    assert_eq!(outcome.stop, StopLayer::Dmarc);

    // shop: softfail and nothing above it — no layer stops the spoof.
    let outcome = client
        .query_stacked(attacker, &shop, SENDER)
        .expect("stacked query")
        .auth_outcome()
        .expect("decodes");
    assert_eq!(outcome.stop, StopLayer::None);
    assert_eq!(outcome.dmarc, DmarcDisposition::Absent);

    // Re-query bank: the layer memo serves the DMARC/STS facts.
    let _ = client
        .query_stacked(attacker, &bank, SENDER)
        .expect("stacked query");
    let telemetry = service.telemetry();
    assert_eq!(telemetry.stacked_served, 4, "{telemetry:?}");
    assert_eq!(telemetry.served, 5, "{telemetry:?}");
    assert_eq!(telemetry.auth_cache.dmarc_misses, 3, "{telemetry:?}");
    assert_eq!(telemetry.auth_cache.dmarc_hits, 1, "{telemetry:?}");
    service.shutdown();
    assert_conservation(&service, "stacked");
}
