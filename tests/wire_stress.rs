//! Wire-path crawl determinism under stress (ISSUE 3's acceptance
//! matrix): crawling the 1:500 population over real UDP/TCP sockets —
//! sharded authoritative servers, pooled client sockets, single-flight
//! coalescing, TTL caching, retry budgets — must produce a report stream
//! *byte-identical* to the in-memory crawl, across the full
//! workers × server-shards matrix, under a zero-fault shard profile.
//!
//! The suite also drives the truncation → TCP fallback path through a
//! whole crawl (512-byte server payloads), checks the wire telemetry
//! (query amplification, coalescing) and the degraded-shard preset, and
//! crawls through a hostile UDP proxy that garbles, replays and
//! duplicates replies — the client's datagram-discard rules under load.

use lazy_gatekeepers::prelude::*;
use spf_netsim::wirelab;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x5bf1_2023;

fn population_at(denominator: u64) -> Population {
    Population::build(PopulationConfig {
        scale: Scale { denominator },
        seed: SEED,
    })
}

/// In-memory reference crawl, serialized.
fn memory_reports_json(population: &Population) -> String {
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
    let out = crawl(&walker, &population.domains, CrawlConfig::with_workers(4));
    serde_json::to_string(&out.reports).expect("reports serialize")
}

/// One wire-mode crawl: fresh fleet, fresh resolver, fresh walker.
fn wire_crawl(
    population: &Population,
    workers: usize,
    servers: usize,
    server_config: ServerConfig,
) -> (Vec<DomainReport>, WireSnapshot, u64) {
    let fleet = WireFleet::spawn(&population.store, servers, server_config).expect("fleet spawns");
    let resolver = Arc::new(
        fleet
            .resolver(WireClientConfig::crawl())
            .with_behaviors(wirelab::zero_faults(servers), SEED),
    );
    let out = crawl(
        &Walker::new(Arc::clone(&resolver)),
        &population.domains,
        CrawlConfig::with_workers(workers).backend(Backend::wire(servers)),
    );
    let tcp_answered = fleet.tcp_answered();
    (out.reports, resolver.snapshot(), tcp_answered)
}

#[test]
fn wire_reports_byte_identical_to_in_memory_across_matrix() {
    // The acceptance matrix: workers ∈ {1, 4, 32} × server shards
    // ∈ {1, 4} at scale 1:500 (≈25.6k domains), zero-fault profile,
    // compared through the fully serialized report stream so every field
    // is covered.
    let population = population_at(500);
    let reference = memory_reports_json(&population);
    for workers in [1usize, 4, 32] {
        for servers in [1usize, 4] {
            let (reports, snapshot, _) =
                wire_crawl(&population, workers, servers, ServerConfig::default());
            let json = serde_json::to_string(&reports).expect("reports serialize");
            assert!(
                json == reference,
                "wire crawl diverged from in-memory at workers={workers} servers={servers}"
            );
            // The crawl really ran over the wire, not a cached shortcut.
            assert!(
                snapshot.wire_queries > population.domains.len() as u64,
                "suspiciously few datagrams at workers={workers} servers={servers}: {snapshot:?}"
            );
        }
    }
}

#[test]
fn truncation_fallback_path_survives_a_full_crawl() {
    // With classic 512-byte payloads the fat provider records exceed UDP:
    // the crawl must transparently retry them over TCP (RFC 7766) and
    // still match the in-memory report stream byte for byte.
    let population = population_at(5_000);
    let reference = memory_reports_json(&population);
    let (reports, snapshot, tcp_answered) =
        wire_crawl(&population, 4, 2, ServerConfig { max_payload: 512 });
    let json = serde_json::to_string(&reports).expect("reports serialize");
    assert!(json == reference, "truncation fallback changed the reports");
    assert!(
        snapshot.tcp_fallbacks > 0,
        "a 512-byte payload cap must force TCP fallbacks: {snapshot:?}"
    );
    assert_eq!(
        snapshot.tcp_fallbacks, tcp_answered,
        "every fallback is served by a fleet TCP listener"
    );
}

#[test]
fn wire_telemetry_accounts_for_the_crawl() {
    let population = population_at(5_000);
    let (reports, snapshot, _) = wire_crawl(&population, 8, 4, ServerConfig::default());
    let domains = reports.len() as u64;
    assert_eq!(domains, population.domains.len() as u64);
    // Amplification: every domain costs at least its own TXT lookup, and
    // the caching/coalescing layers keep the multiplier in check.
    let amplification = snapshot.amplification(domains);
    assert!(
        (1.0..20.0).contains(&amplification),
        "implausible amplification {amplification}: {snapshot:?}"
    );
    // The TTL cache and single-flight layers both absorbed repeats: the
    // walker asks more questions than datagrams leave the host.
    assert!(
        snapshot.queries > snapshot.wire_queries,
        "caching/coalescing absorbed nothing: {snapshot:?}"
    );
    assert!(snapshot.cache_hits > 0, "no wire-cache hits: {snapshot:?}");
}

#[test]
fn degraded_shard_preset_degrades_to_temperror_not_divergence() {
    // One victim shard timing out must surface as transient DNS errors
    // (the paper's temperror cohort) — never as a hang, a crash, or
    // missing reports.
    let population = population_at(20_000);
    let servers = 4;
    let fleet = WireFleet::spawn(&population.store, servers, ServerConfig::default())
        .expect("fleet spawns");
    let resolver = Arc::new(
        fleet
            .resolver(WireClientConfig::crawl())
            .with_behaviors(wirelab::degraded_shard(servers, 1, Duration::ZERO), SEED),
    );
    let out = crawl(
        &Walker::new(Arc::clone(&resolver)),
        &population.domains,
        CrawlConfig::with_workers(4).backend(Backend::wire(servers)),
    );
    assert_eq!(out.reports.len(), population.domains.len());
    let snapshot = resolver.snapshot();
    assert!(
        snapshot.injected_faults > 0,
        "the degraded shard never fired: {snapshot:?}"
    );
    // Injected timeouts surface through the same temperror accounting as
    // genuine budget exhaustion.
    assert!(snapshot.temp_errors > 0, "{snapshot:?}");
}

#[test]
fn client_discards_garbled_duplicate_and_stale_replies() {
    // A hostile proxy sits between the client and the (single-shard)
    // authoritative server. For every real answer it sends the client:
    //   1. a garbled runt datagram (truncated below the DNS header),
    //   2. a stale replay of the *previous* answer (an id the pooled
    //      socket is no longer waiting for),
    //   3. the real answer,
    //   4. the real answer again (left queued on the pooled socket for
    //      whichever query borrows it next).
    // The client must discard 1, 2, and 4 by its id/decode rules and
    // still produce a report stream byte-identical to the in-memory
    // crawl.
    let population = population_at(50_000);
    let reference = memory_reports_json(&population);

    // A payload cap comfortably above the fattest record keeps the
    // exchange pure UDP: the proxy has no TCP listener, so a truncated
    // reply would otherwise drag the client into a refused fallback.
    let fleet = WireFleet::spawn(&population.store, 1, ServerConfig { max_payload: 4096 })
        .expect("fleet spawns");
    let upstream_addr = fleet.addrs()[0];

    let proxy = UdpSocket::bind("127.0.0.1:0").expect("proxy binds");
    let proxy_addr = proxy.local_addr().expect("proxy addr");
    proxy
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);

    let proxy_thread = std::thread::spawn(move || {
        let upstream = UdpSocket::bind("127.0.0.1:0").expect("upstream socket binds");
        // Short upstream wait: zone-faulted domains never answer, and a
        // long block here would starve every other in-flight query.
        upstream
            .set_read_timeout(Some(Duration::from_millis(10)))
            .expect("upstream timeout");
        let mut buf = [0u8; 4096];
        let mut reply = [0u8; 4096];
        let mut prev_reply: Option<Vec<u8>> = None;
        while !stop_flag.load(Ordering::Relaxed) {
            let (n, client) = match proxy.recv_from(&mut buf) {
                Ok(pair) => pair,
                Err(_) => continue, // poll the stop flag
            };
            upstream
                .send_to(&buf[..n], upstream_addr)
                .expect("forward to upstream");
            let Ok((rn, _)) = upstream.recv_from(&mut reply) else {
                continue; // upstream timeout: let the client retry
            };
            let answer = &reply[..rn];
            // 1. Garbled runt (shorter than a DNS header: decode error).
            let _ = proxy.send_to(&answer[..answer.len().min(7)], client);
            // 2. Stale replay of a completed query's answer.
            if let Some(stale) = &prev_reply {
                let _ = proxy.send_to(stale, client);
            }
            // 3 + 4. The real answer, twice.
            let _ = proxy.send_to(answer, client);
            let _ = proxy.send_to(answer, client);
            prev_reply = Some(answer.to_vec());
        }
    });

    let resolver = Arc::new(WireResolver::new(
        vec![proxy_addr],
        WireClientConfig::crawl(),
    ));
    let out = crawl(
        &Walker::new(Arc::clone(&resolver)),
        &population.domains,
        CrawlConfig::with_workers(4).backend(Backend::wire(1)),
    );
    let snapshot = resolver.snapshot();
    stop.store(true, Ordering::Relaxed);
    proxy_thread.join().expect("proxy thread exits");

    let json = serde_json::to_string(&out.reports).expect("reports serialize");
    assert!(
        json == reference,
        "hostile proxy changed the reports: {snapshot:?}"
    );
    assert!(snapshot.wire_queries > 0, "{snapshot:?}");
    assert_eq!(snapshot.tcp_fallbacks, 0, "pure-UDP test: {snapshot:?}");
}
