//! Per-layer probes: each layer's public functions called directly on
//! the workload's own inputs and timed from here. A probe reports the
//! median over its calls (over batches of calls for nanosecond-scale
//! functions, where a clock read per call would be most of the
//! reading). "Cold" probes visit each input once; the others cycle.

use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spf_analyzer::{analyze_domain, Walker};
use spf_bench::build_resolver;
use spf_core::{
    check_host, check_host_cached, compile_policy, parse_lenient, query_dmarc, query_mta_sts,
    AuthCache, AuthOutcome, CompileConfig, CompilerStats, DmarcDisposition, EvalContext,
    EvalPolicy,
};
use spf_crawler::{
    crawl, evaluate_auth_row, CrawlConfig, SpoofVerdictCache, VantageKind, VantagePoint,
};
use spf_dns::{
    decode, encode, Message, Question, Rcode, RecordType, Resolver, SystemClock, ZoneResolver,
};
use spf_service::proto::{decode_datagram, encode_frame, Frame, QueryFrame, ResponseFrame};
use spf_service::{
    ServiceClient, ServiceConfig, Transport, TtlLru, TtlLruConfig, VerdictService,
    TRAFFIC_SENDER_LOCAL,
};
use spf_types::{Backend, CoverageMap, DomainName, Ipv4Set};

use crate::host::{host_speed, spin_ms};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{ProbeWorld, Sizes, REACTOR_BACKEND, SERVICE_WORKERS, WIRE_BACKEND, WIRE_WORKERS};

/// Timed probes in [`run`]; each gets an equal share of the budget.
const PROBES: u32 = 36;
/// Calls per clock read for nanosecond-scale functions.
const BATCH: usize = 64;

/// Addresses evaluated from when the workload has none of its own (the
/// crawl and churn workloads never evaluate): TEST-NET-1 and -3, which
/// no generated zone authorizes.
const FALLBACK_IPS: [IpAddr; 2] = [
    IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
    IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9)),
];

/// One probe's reading.
pub type Reading = (&'static str, f64);

struct Prober<'a> {
    share: Duration,
    tracer: &'a mut Tracer,
    readings: Vec<Reading>,
}

impl Prober<'_> {
    /// Time `call(i)` for `i` cycling over `0..items`, `batch` calls
    /// per clock read, until the probe's budget share is spent; with
    /// `once`, stop after one pass. Records the median per-call time
    /// in `unit_ns`-sized units (1 for ns, 1 000 for µs, …), scaled to
    /// the reference host speed like every other timing.
    fn time(
        &mut self,
        name: &'static str,
        unit_ns: f64,
        items: usize,
        batch: usize,
        once: bool,
        mut call: impl FnMut(usize),
    ) {
        if items == 0 {
            self.readings.push((name, 0.0));
            return;
        }
        let span = self.tracer.begin(name);
        let spin_before = spin_ms();
        let started = Instant::now();
        let mut samples = Vec::new();
        let mut next = 0usize;
        'probe: loop {
            let batch_started = Instant::now();
            let mut done = 0usize;
            for _ in 0..batch {
                if once && next == items {
                    break;
                }
                call(next % items);
                next += 1;
                done += 1;
            }
            if done > 0 {
                samples.push(batch_started.elapsed().as_nanos() as f64 / done as f64 / unit_ns);
            }
            if (once && next == items) || started.elapsed() >= self.share {
                break 'probe;
            }
        }
        let speed = host_speed(spin_before, spin_ms());
        self.tracer.end(span);
        self.readings
            .push((name, median(&samples).expect("at least one sample") * speed));
    }
}

/// Run `call`; its output and its wall seconds at the reference host
/// speed.
fn wall<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let spin_before = spin_ms();
    let started = Instant::now();
    let output = call();
    let secs = started.elapsed().as_secs_f64();
    (output, secs * host_speed(spin_before, spin_ms()))
}

/// Run every probe on `world` within about `budget`.
pub fn run(
    world: &ProbeWorld,
    sizes: &Sizes,
    budget: Duration,
    tracer: &mut Tracer,
) -> Vec<Reading> {
    let mut p = Prober {
        share: budget / PROBES,
        tracer,
        readings: Vec::new(),
    };
    // An evenly strided sample: the head of the ranking is richer in
    // SPF records and includes than the population the workload ran on.
    let stride = (world.domains.len() / sizes.probe_domains.max(1)).max(1);
    let domains: Vec<DomainName> = world
        .domains
        .iter()
        .step_by(stride)
        .take(sizes.probe_domains)
        .cloned()
        .collect();
    let domains = &domains[..];
    let n = domains.len();
    let ips: &[IpAddr] = if world.ips.is_empty() {
        &FALLBACK_IPS
    } else {
        &world.ips
    };
    let resolver = ZoneResolver::new(Arc::clone(&world.store));
    let policy = EvalPolicy::default();

    // analyzer::walker + crawler::crawl's serial baseline: one cold
    // pass over the probe domains on one thread, then a warm pass.
    let walker = Walker::new(ZoneResolver::new(Arc::clone(&world.store)));
    let mut reports = Vec::with_capacity(n);
    let (_, cold_pass) = wall(|| {
        p.time("analyzer.walker.analyze_us", 1e3, n, 1, true, |i| {
            reports.push(analyze_domain(&walker, &domains[i]));
        })
    });
    p.readings
        .push(("crawler.crawl.serial_domains_per_s", n as f64 / cold_pass));
    p.time("analyzer.walker.hit_ns", 1.0, n, BATCH, false, |i| {
        black_box(walker.analyze(&domains[i]));
    });

    // types::overlap on the sets that crawl folded.
    let sets: Vec<&Ipv4Set> = reports
        .iter()
        .filter(|r| r.has_spf)
        .filter_map(|r| r.record.as_ref().map(|record| &record.ips))
        .collect();
    let mut map = CoverageMap::new();
    p.time(
        "types.coverage.add_set_ns",
        1.0,
        sets.len(),
        BATCH,
        false,
        |i| {
            map.add_set(sets[i]);
        },
    );
    p.time(
        "types.coverage.remove_set_ns",
        1.0,
        sets.len(),
        BATCH,
        false,
        |i| {
            map.remove_set(sets[i]);
        },
    );
    let mut full = CoverageMap::new();
    for set in &sets {
        full.add_set(set);
    }
    let mut fresh = Some(full.clone());
    p.time("types.coverage.sweep_ms", 1e6, 1, 1, false, |_| {
        let map = fresh.take().unwrap_or_else(|| full.clone());
        black_box(map.into_weighted());
    });

    // dns::zone and the dns::wire codec.
    p.time("dns.zone.query_ns", 1.0, n, BATCH, false, |i| {
        let _ = black_box(resolver.query(&domains[i], RecordType::Txt));
    });
    let queries: Vec<Message> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| Message::query(i as u16, Question::new(d.clone(), RecordType::Txt)))
        .collect();
    let responses: Vec<Message> = queries
        .iter()
        .zip(domains)
        .map(|(q, d)| {
            let answers = resolver.query(d, RecordType::Txt).unwrap_or_default();
            Message::response(q, Rcode::NoError, answers)
        })
        .collect();
    p.time("dns.wire.encode_ns", 1.0, n, BATCH, false, |i| {
        let _ = black_box(encode(&responses[i]));
    });
    let encoded: Vec<Vec<u8>> = responses.iter().filter_map(|m| encode(m).ok()).collect();
    p.time(
        "dns.wire.decode_ns",
        1.0,
        encoded.len(),
        BATCH,
        false,
        |i| {
            let _ = black_box(decode(&encoded[i]));
        },
    );

    // dns::fleet and dns::reactor: one cold blocking round trip per
    // domain, then the same questions again from the engine's cache.
    for (backend, lookup, cached, crawl_rate) in [
        (
            WIRE_BACKEND,
            "dns.fleet.lookup_us",
            Some("dns.fleet.cached_ns"),
            "dns.fleet.domains_per_s",
        ),
        (
            REACTOR_BACKEND,
            "dns.reactor.lookup_us",
            None,
            "dns.reactor.domains_per_s",
        ),
    ] {
        let rate = wire_probes(&mut p, world, domains, backend, lookup, cached);
        p.readings.push((crawl_rate, rate.unwrap_or(0.0)));
    }

    // core::parse on the SPF records of the probe domains.
    let records: Vec<String> = domains
        .iter()
        .flat_map(|d| world.store.txt_strings(d))
        .filter(|text| spf_core::is_spf_record(text))
        .collect();
    p.time(
        "core.parse.record_ns",
        1.0,
        records.len(),
        BATCH,
        false,
        |i| {
            black_box(parse_lenient(&records[i]));
        },
    );

    // core::eval, bare and through a warm verdict cache.
    let ctx_of = |i: usize| {
        let domain = &domains[i % n];
        (
            EvalContext::mail_from(ips[i % ips.len()], TRAFFIC_SENDER_LOCAL, domain.clone()),
            domain,
        )
    };
    let contexts: Vec<(EvalContext, &DomainName)> = (0..n).map(ctx_of).collect();
    p.time("core.eval.check_host_us", 1e3, n, 1, false, |i| {
        black_box(check_host(
            &resolver,
            &contexts[i].0,
            contexts[i].1,
            &policy,
        ));
    });
    let verdicts = SpoofVerdictCache::with_default_shards();
    let evaluations: Vec<_> = contexts
        .iter()
        .map(|(ctx, domain)| check_host_cached(&resolver, ctx, domain, &policy, &verdicts))
        .collect();
    p.time("core.eval.cached_us", 1e3, n, 1, false, |i| {
        black_box(check_host_cached(
            &resolver,
            &contexts[i].0,
            contexts[i].1,
            &policy,
            &verdicts,
        ));
    });

    // core::compile: compile each domain once (cold), then look up.
    // The compile time is the *mean*, not the median: a few domains
    // with deep include trees cost a hundred times the typical one, and
    // it is the sum that `matrix-compiled` pays.
    let compile_config = CompileConfig::with_policy(policy);
    let span = p.tracer.begin("core.compile.policy_us");
    let (tables, secs) = wall(|| {
        domains
            .iter()
            .map(|domain| compile_policy(&resolver, domain, &compile_config))
            .collect::<Vec<_>>()
    });
    p.tracer.end(span);
    p.readings
        .push(("core.compile.policy_us", secs * 1e6 / n.max(1) as f64));
    p.time(
        "core.compile.verdict_ns",
        1.0,
        tables.len(),
        BATCH,
        false,
        |i| {
            black_box(tables[i].verdict(ips[i % ips.len()]));
        },
    );

    // core::auth: the DMARC lookup, and composing the three layers.
    let mut dispositions = Vec::with_capacity(n);
    p.time("core.auth.dmarc_us", 1e3, n, 1, true, |i| {
        dispositions.push(DmarcDisposition::from_lookup(&query_dmarc(
            &resolver,
            &domains[i],
        )));
    });
    let modes: Vec<_> = domains
        .iter()
        .map(|d| query_mta_sts(&resolver, d))
        .collect();
    p.time(
        "core.auth.compose_ns",
        1.0,
        dispositions.len(),
        BATCH,
        false,
        |i| {
            black_box(AuthOutcome::compose(
                evaluations[i].clone(),
                dispositions[i],
                modes[i],
            ));
        },
    );

    // crawler::spoof: one whole matrix row per domain, caches shared
    // across rows as the engine shares them.
    let vantages: Vec<VantagePoint> = ips
        .iter()
        .filter_map(|ip| match ip {
            IpAddr::V4(v4) => Some(VantagePoint {
                label: "probe".to_string(),
                kind: VantageKind::SharedCoverage,
                ip: *v4,
            }),
            IpAddr::V6(_) => None,
        })
        .collect();
    let row_cache = SpoofVerdictCache::with_default_shards();
    let auth_cache = AuthCache::new();
    let mut compiler = CompilerStats::default();
    p.time("crawler.spoof.row_us", 1e3, n, 1, true, |i| {
        black_box(evaluate_auth_row(
            &resolver,
            &domains[i],
            &vantages,
            &policy,
            Some(&row_cache),
            false,
            &mut compiler,
            Some(&auth_cache),
        ));
    });

    // service::proto: the four codec directions on this world's queries
    // and verdicts.
    let query_frames: Vec<Frame> = contexts
        .iter()
        .enumerate()
        .map(|(i, (ctx, domain))| {
            Frame::Query(QueryFrame {
                id: i as u64,
                ip: ctx.ip,
                domain: (*domain).clone(),
                sender_local: TRAFFIC_SENDER_LOCAL.to_string(),
                stack: false,
            })
        })
        .collect();
    p.time("service.proto.encode_query_ns", 1.0, n, BATCH, false, |i| {
        black_box(encode_frame(&query_frames[i]));
    });
    let query_bytes: Vec<Vec<u8>> = query_frames.iter().map(encode_frame).collect();
    p.time("service.proto.decode_query_ns", 1.0, n, BATCH, false, |i| {
        let _ = black_box(decode_datagram(&query_bytes[i]));
    });
    // What a worker does per answer: serialize the verdict, frame it.
    p.time(
        "service.proto.encode_response_ns",
        1.0,
        n,
        BATCH,
        false,
        |i| {
            black_box(encode_frame(&Frame::Response(ResponseFrame::verdict(
                i as u64,
                &evaluations[i],
            ))));
        },
    );
    let response_bytes: Vec<Vec<u8>> = evaluations
        .iter()
        .enumerate()
        .map(|(i, eval)| encode_frame(&Frame::Response(ResponseFrame::verdict(i as u64, eval))))
        .collect();
    p.time(
        "service.proto.decode_response_ns",
        1.0,
        n,
        BATCH,
        false,
        |i| {
            let _ = black_box(decode_datagram(&response_bytes[i]));
        },
    );

    // service::cache (`TtlLru`), keyed by the probe domains.
    let clock = Arc::new(SystemClock::new());
    let roomy: TtlLru<DomainName, u64> = TtlLru::new(TtlLruConfig::default(), clock.clone());
    p.time("service.cache.miss_ns", 1.0, n, BATCH, false, |i| {
        black_box(roomy.get(&domains[i]));
    });
    p.time("service.cache.insert_ns", 1.0, n, BATCH, false, |i| {
        roomy.insert(domains[i].clone(), i as u64);
    });
    p.time("service.cache.hit_ns", 1.0, n, BATCH, false, |i| {
        black_box(roomy.get(&domains[i]));
    });
    // A store far smaller than the key set: every insert evicts.
    let cramped: TtlLru<DomainName, u64> = TtlLru::new(
        TtlLruConfig::new((n / 8).max(1), Duration::from_secs(300)),
        clock,
    );
    for (i, domain) in domains.iter().enumerate() {
        cramped.insert(domain.clone(), i as u64);
    }
    p.time("service.cache.insert_evict_ns", 1.0, n, BATCH, false, |i| {
        cramped.insert(domains[i].clone(), i as u64);
    });

    // service::service: window-1 ping-pong against a warmed service —
    // the unloaded cost of recv → decode → queue → worker → encode →
    // send, per transport.
    let backend = Backend::parse("memory+compiled").expect("backend string parses");
    let shared: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&world.store)));
    let service = VerdictService::spawn(
        shared,
        ServiceConfig::from_backend(backend, SERVICE_WORKERS),
    )
    .expect("probe service binds on loopback");
    let ping = n.min(256);
    for (name, transport) in [
        ("service.rtt.udp_us", Transport::Udp),
        ("service.rtt.tcp_us", Transport::Tcp),
    ] {
        let mut client =
            ServiceClient::connect(service.addr(), transport).expect("probe client connects");
        let mut ask = |i: usize| {
            let (ctx, domain) = &contexts[i];
            black_box(client.query(ctx.ip, domain, TRAFFIC_SENDER_LOCAL)).expect("probe query");
        };
        (0..ping).for_each(&mut ask);
        p.time(name, 1e3, ping, 1, false, ask);
    }
    drop(service);

    p.readings
}

/// The two wire engines share a probe: a fresh fleet behind `backend`,
/// every probe domain's TXT looked up once cold (`lookup`), once more
/// from the engine's cache (`cached`, when named), and — returned — the
/// domains per second of one pooled crawl of the probe domains through
/// a second fresh stack. `None` (and readings of 0) when `backend` no
/// longer parses.
fn wire_probes(
    p: &mut Prober<'_>,
    world: &ProbeWorld,
    domains: &[DomainName],
    backend: &str,
    lookup: &'static str,
    cached: Option<&'static str>,
) -> Option<f64> {
    let Ok(backend) = Backend::parse(backend) else {
        p.readings.push((lookup, 0.0));
        p.readings.extend(cached.map(|name| (name, 0.0)));
        return None;
    };
    let n = domains.len();
    {
        let (resolver, _fleet) = build_resolver(&world.store, backend);
        p.time(lookup, 1e3, n, 1, true, |i| {
            let _ = black_box(resolver.query(&domains[i], RecordType::Txt));
        });
        if let Some(cached) = cached {
            p.time(cached, 1.0, n, BATCH, false, |i| {
                let _ = black_box(resolver.query(&domains[i], RecordType::Txt));
            });
        }
    }
    let (resolver, _fleet) = build_resolver(&world.store, backend);
    let walker = Walker::new(resolver);
    let config = CrawlConfig::with_workers(WIRE_WORKERS).backend(backend);
    let (output, secs) = wall(|| crawl(&walker, domains, config));
    Some(output.reports.len() as f64 / secs)
}
