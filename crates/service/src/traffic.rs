//! Deterministic load generator and multi-client driver.
//!
//! Three mix shapes bracket the cache's operating envelope:
//!
//! * [`TrafficMix::HotSkew`] — domains drawn Zipf(s=1) over the
//!   population ranking, clients cycling through the vantage IPs: the
//!   receiver-at-steady-state shape where a small hot set dominates and
//!   the TTL/LRU cache should approach its best hit rate.
//! * [`TrafficMix::AttackerBurst`] — runs of queries from one
//!   top-coverage vantage IP against a small hot domain set: the
//!   spoof-attempt shape (the overlap engine's vantages are exactly the
//!   IPs an attacker would rent), maximally cache-friendly per burst.
//! * [`TrafficMix::ColdFlood`] — every query a fresh `(domain, ip)`
//!   pair: the worst case where the verdict memo cannot help at all and
//!   eviction pressure is highest.
//!
//! Plans are pregenerated with `spf_types::splitmix64` from a
//! caller seed, so a mix is reproducible bit-for-bit across runs; the
//! driver then replays a plan through real sockets with N client
//! threads × a pipelining window, recording per-query round trips.

use std::net::{IpAddr, SocketAddr};
use std::time::Instant;

use serde::Serialize;
use spf_types::{splitmix64, DomainName};

use crate::client::{QuerySpec, ServiceClient, Transport};
use crate::histogram::{LatencySnapshot, LogHistogram};
use crate::proto::Status;

/// MAIL FROM localpart stamped on generated queries.
pub const TRAFFIC_SENDER_LOCAL: &str = "traffic";

/// Queries per burst in [`TrafficMix::AttackerBurst`].
const BURST_LEN: usize = 32;
/// Hot-set size for burst targeting.
const BURST_HOT_DOMAINS: usize = 64;

/// The three generated load shapes. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficMix {
    /// Zipf hot-domain skew from vantage IPs.
    HotSkew,
    /// Attacker bursts from top-coverage vantages.
    AttackerBurst,
    /// Unique `(domain, ip)` pairs — no cacheable reuse.
    ColdFlood,
}

impl TrafficMix {
    /// Parse a CLI label (`hot` / `burst` / `cold`).
    pub fn parse(label: &str) -> Option<TrafficMix> {
        match label {
            "hot" => Some(TrafficMix::HotSkew),
            "burst" => Some(TrafficMix::AttackerBurst),
            "cold" => Some(TrafficMix::ColdFlood),
            _ => None,
        }
    }

    /// The CLI label (`hot` / `burst` / `cold`).
    pub fn label(&self) -> &'static str {
        match self {
            TrafficMix::HotSkew => "hot",
            TrafficMix::AttackerBurst => "burst",
            TrafficMix::ColdFlood => "cold",
        }
    }
}

impl std::fmt::Display for TrafficMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn random_background_ip(state: &mut u64) -> IpAddr {
    // TEST-NET-3 plus a spread of the 100.64/10 shared space: addresses
    // no generated zone allows, so cold queries exercise full walks.
    let raw = splitmix64(state);
    IpAddr::from([
        100 + (raw & 0x3F) as u8,
        (raw >> 8) as u8,
        (raw >> 16) as u8,
        (raw >> 24) as u8,
    ])
}

/// Build a deterministic query plan: `queries` specs drawn from
/// `domains` (population ranking order) and `vantage_ips` (top-coverage
/// first) according to `mix`, seeded by `seed`.
///
/// # Panics
///
/// If `domains` or `vantage_ips` is empty.
pub fn build_plan(
    mix: TrafficMix,
    domains: &[DomainName],
    vantage_ips: &[IpAddr],
    queries: usize,
    seed: u64,
) -> Vec<QuerySpec> {
    assert!(!domains.is_empty(), "a traffic plan needs domains");
    assert!(!vantage_ips.is_empty(), "a traffic plan needs vantage IPs");
    let mut state = seed ^ 0x7261_6666_6963_2121; // domain-separate the stream
    let mut plan = Vec::with_capacity(queries);
    match mix {
        TrafficMix::HotSkew => {
            // Zipf(s=1): cumulative harmonic weights once, then binary
            // search per draw.
            let mut cumulative = Vec::with_capacity(domains.len());
            let mut total = 0.0f64;
            for rank in 0..domains.len() {
                total += 1.0 / (rank as f64 + 1.0);
                cumulative.push(total);
            }
            for i in 0..queries {
                let target = unit_f64(&mut state) * total;
                let rank = cumulative.partition_point(|&c| c < target);
                plan.push(QuerySpec {
                    ip: vantage_ips[i % vantage_ips.len()],
                    domain: domains[rank.min(domains.len() - 1)].clone(),
                    sender_local: TRAFFIC_SENDER_LOCAL.to_string(),
                    stack: false,
                });
            }
        }
        TrafficMix::AttackerBurst => {
            let hot = domains.len().min(BURST_HOT_DOMAINS);
            let mut burst_ip = vantage_ips[0];
            for i in 0..queries {
                if i % BURST_LEN == 0 {
                    burst_ip = vantage_ips[(splitmix64(&mut state) as usize) % vantage_ips.len()];
                }
                let domain = &domains[(splitmix64(&mut state) as usize) % hot];
                plan.push(QuerySpec {
                    ip: burst_ip,
                    domain: domain.clone(),
                    sender_local: TRAFFIC_SENDER_LOCAL.to_string(),
                    stack: false,
                });
            }
        }
        TrafficMix::ColdFlood => {
            for i in 0..queries {
                plan.push(QuerySpec {
                    ip: random_background_ip(&mut state),
                    domain: domains[i % domains.len()].clone(),
                    sender_local: TRAFFIC_SENDER_LOCAL.to_string(),
                    stack: false,
                });
            }
        }
    }
    plan
}

/// What a driver run measured, ready for a `[traffic]` line.
#[derive(Debug, Clone, Serialize)]
pub struct TrafficReport {
    /// Mix label (`hot` / `burst` / `cold`).
    pub mix: String,
    /// Transport label (`udp` / `tcp`).
    pub transport: String,
    /// Client threads.
    pub clients: usize,
    /// Pipelining window per client.
    pub window: usize,
    /// Queries sent.
    pub sent: u64,
    /// `ok` verdict responses.
    pub ok: u64,
    /// Typed `overloaded` responses.
    pub overloaded: u64,
    /// Other non-`ok` responses (bad-request / shutting-down).
    pub errors: u64,
    /// Wall-clock run time.
    pub elapsed_secs: f64,
    /// Answered queries per second (all statuses — an `overloaded`
    /// shed is still an answered query).
    pub qps: f64,
    /// Client-observed round-trip latency distribution.
    pub latency: LatencySnapshot,
}

impl std::fmt::Display for TrafficReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[traffic] mix={} transport={} clients={} window={} sent={} ok={} overloaded={} \
             errors={} qps={:.0} lat(µs): p50={:.0} p99={:.0} p999={:.0}",
            self.mix,
            self.transport,
            self.clients,
            self.window,
            self.sent,
            self.ok,
            self.overloaded,
            self.errors,
            self.qps,
            self.latency.p50_us,
            self.latency.p99_us,
            self.latency.p999_us,
        )
    }
}

/// Replay `plan` against the service at `addr` with `clients` threads
/// each pipelining `window` queries, and report throughput and
/// round-trip latency. The plan is split into contiguous per-client
/// chunks; every query is answered (typed sheds included) or the run
/// fails.
pub fn drive(
    addr: SocketAddr,
    transport: Transport,
    mix: TrafficMix,
    plan: &[QuerySpec],
    clients: usize,
    window: usize,
) -> std::io::Result<TrafficReport> {
    let clients = clients.max(1);
    let latency = LogHistogram::new();
    let chunk_len = plan.len().div_ceil(clients).max(1);
    let started = Instant::now();
    let tallies: Vec<std::io::Result<(u64, u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .chunks(chunk_len)
            .map(|chunk| {
                let latency = &latency;
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr, transport)?;
                    let responses = client.run(chunk, window, Some(latency))?;
                    let mut ok = 0u64;
                    let mut overloaded = 0u64;
                    let mut errors = 0u64;
                    for response in &responses {
                        match response.status {
                            Status::Ok => ok += 1,
                            Status::Overloaded => overloaded += 1,
                            _ => errors += 1,
                        }
                    }
                    Ok((ok, overloaded, errors))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let (mut ok, mut overloaded, mut errors) = (0u64, 0u64, 0u64);
    for tally in tallies {
        let (o, v, e) = tally?;
        ok += o;
        overloaded += v;
        errors += e;
    }
    let answered = ok + overloaded + errors;
    let elapsed_secs = elapsed.as_secs_f64().max(f64::EPSILON);
    Ok(TrafficReport {
        mix: mix.label().to_string(),
        transport: transport.to_string(),
        clients,
        window,
        sent: plan.len() as u64,
        ok,
        overloaded,
        errors,
        elapsed_secs,
        qps: answered as f64 / elapsed_secs,
        latency: latency.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domains(n: usize) -> Vec<DomainName> {
        (0..n)
            .map(|i| DomainName::parse(&format!("d{i}.example")).unwrap())
            .collect()
    }

    #[test]
    fn plans_are_deterministic() {
        let doms = domains(50);
        let ips: Vec<IpAddr> = vec![IpAddr::from([192, 0, 2, 1]), IpAddr::from([192, 0, 2, 2])];
        for mix in [
            TrafficMix::HotSkew,
            TrafficMix::AttackerBurst,
            TrafficMix::ColdFlood,
        ] {
            let a = build_plan(mix, &doms, &ips, 500, 7);
            let b = build_plan(mix, &doms, &ips, 500, 7);
            assert_eq!(a, b, "{mix} plan must be reproducible");
            let c = build_plan(mix, &doms, &ips, 500, 8);
            assert_ne!(a, c, "{mix} plan must vary with the seed");
        }
    }

    #[test]
    fn hot_skew_actually_skews() {
        let doms = domains(100);
        let ips: Vec<IpAddr> = vec![IpAddr::from([192, 0, 2, 1])];
        let plan = build_plan(TrafficMix::HotSkew, &doms, &ips, 2_000, 42);
        let top = doms[0].clone();
        let top_share = plan.iter().filter(|q| q.domain == top).count() as f64 / plan.len() as f64;
        // Zipf(s=1) over 100 ranks gives the top rank ~1/H(100) ≈ 19 %.
        assert!(
            top_share > 0.10,
            "top domain drew only {top_share:.3} of the plan"
        );
    }

    #[test]
    fn bursts_share_one_vantage() {
        let doms = domains(16);
        let ips: Vec<IpAddr> = (0..8).map(|i| IpAddr::from([192, 0, 2, i])).collect();
        let plan = build_plan(TrafficMix::AttackerBurst, &doms, &ips, 256, 9);
        for burst in plan.chunks(BURST_LEN) {
            let first = burst[0].ip;
            assert!(burst.iter().all(|q| q.ip == first));
        }
    }

    #[test]
    fn cold_flood_never_repeats_a_pair() {
        let doms = domains(64);
        let ips: Vec<IpAddr> = vec![IpAddr::from([192, 0, 2, 1])];
        let plan = build_plan(TrafficMix::ColdFlood, &doms, &ips, 64, 3);
        let mut pairs: Vec<_> = plan
            .iter()
            .map(|q| (q.domain.as_str().to_string(), q.ip))
            .collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), plan.len());
    }

    #[test]
    #[should_panic(expected = "needs domains")]
    fn empty_domains_panic() {
        build_plan(
            TrafficMix::HotSkew,
            &[],
            &[IpAddr::from([192, 0, 2, 1])],
            1,
            0,
        );
    }
}
