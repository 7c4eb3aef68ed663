//! The whole measurement pipeline over real sockets: a generated
//! population served by one authoritative UDP name server, crawled through
//! the RFC 1035 wire codec with the caching wire client — proving the DNS
//! substrate is a network component, not an in-process shortcut, and that
//! both paths measure identically.

use std::sync::Arc;

use spf_analyzer::Walker;
use spf_crawler::{crawl, CrawlConfig, ScanAggregates};
use spf_dns::{ServerConfig, UdpNameServer, WireClientConfig, WireResolver, ZoneResolver};
use spf_netsim::{Population, PopulationConfig, Scale};

fn small_population() -> Population {
    Population::build(PopulationConfig {
        scale: Scale {
            denominator: 20_000,
        }, // ≈641 domains
        seed: 0x5bf1_2023,
    })
}

#[test]
fn udp_crawl_matches_in_process_crawl() {
    let population = small_population();

    // In-process reference scan.
    let reference_walker = Walker::new(ZoneResolver::new(Arc::clone(&population.store)));
    let reference = crawl(
        &reference_walker,
        &population.domains,
        CrawlConfig::with_workers(4),
    );
    let reference_agg = ScanAggregates::compute(&reference.reports);

    // Same zone, served over UDP with the client's TTL cache in front.
    let server = UdpNameServer::spawn(
        Arc::clone(&population.store),
        ServerConfig { max_payload: 4096 },
    )
    .expect("server spawns");
    let udp = Arc::new(WireResolver::new(
        vec![server.addr()],
        WireClientConfig {
            timeout: std::time::Duration::from_millis(200),
            attempts: 2,
            ..WireClientConfig::default()
        },
    ));
    let udp_walker = Walker::new(Arc::clone(&udp));
    let over_wire = crawl(
        &udp_walker,
        &population.domains,
        CrawlConfig::with_workers(1),
    );
    let over_wire_agg = ScanAggregates::compute(&over_wire.reports);

    // DnsTransient domains rely on server silence and may differ between
    // transports in timing-sensitive CI; compare the aggregate columns
    // that matter.
    assert_eq!(
        over_wire_agg.with_spf, reference_agg.with_spf,
        "SPF counts must match"
    );
    assert_eq!(
        over_wire_agg.with_mx, reference_agg.with_mx,
        "MX counts must match"
    );
    assert_eq!(
        over_wire_agg.with_dmarc, reference_agg.with_dmarc,
        "DMARC counts must match"
    );
    assert_eq!(
        over_wire_agg.error_counts, reference_agg.error_counts,
        "error classes must match"
    );
    assert_eq!(
        over_wire_agg.allowed_ip_counts, reference_agg.allowed_ip_counts,
        "authorized-IP counting must be transport-independent"
    );

    // The server really answered, and the cache really collapsed load.
    assert!(
        server.answered() > 500,
        "server answered {}",
        server.answered()
    );
    let snap = udp.snapshot();
    assert!(snap.cache_hits > 0, "cache must get hits (provider reuse)");
    // One worker, so nothing coalesces: every query is a cache hit or
    // one first datagram.
    assert_eq!(
        snap.cache_hits + snap.wire_queries - snap.retries,
        snap.queries,
        "{snap:?}"
    );
}

#[test]
fn udp_resolver_survives_provider_records_at_full_size() {
    // The biggest provider record (websitewelcome-scale, dozens of blocks)
    // must round-trip the wire within the configured payload.
    let population = small_population();
    let server = UdpNameServer::spawn(
        Arc::clone(&population.store),
        ServerConfig { max_payload: 4096 },
    )
    .unwrap();
    let udp = WireResolver::new(vec![server.addr()], WireClientConfig::default());
    let walker = Walker::new(udp);
    for entry in &population.providers.catalog {
        let analysis = walker.analyze(&entry.domain);
        assert_eq!(
            analysis.allowed_ip_count(),
            entry.allowed_ips,
            "{} over UDP",
            entry.domain
        );
    }
}
