//! The batched lookup, `Resolver::query_many`, on the wire client: it
//! must answer exactly what one `query` per question answers, count the
//! same, stay bounded under a garbage flood and never deadlock callers
//! that lead each other's questions.

use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use spf_dns::{
    decode, encode, Clock, DnsError, LookupOutcome, Message, Question, Rcode, RecordType, Resolver,
    RrSet, ServerConfig, SystemClock, WireClientConfig, WireFleet, WireResolver, ZoneFault,
    ZoneResolver, ZoneStore,
};
use spf_testkit::dom;
use spf_types::DomainName;

fn q(name: &str, rtype: RecordType) -> Question {
    Question::new(dom(name), rtype)
}

/// One `query_many` call, with an answer slot per question.
fn ask_all(resolver: &impl Resolver, questions: &[Question]) -> Vec<Result<RrSet, DnsError>> {
    let mut answers = vec![Ok(RrSet::EMPTY); questions.len()];
    resolver.query_many(questions, &mut answers);
    answers
}

/// Two attempts, as the crawl profile, so the counter laws apply.
fn fast_config() -> WireClientConfig {
    WireClientConfig {
        timeout: Duration::from_millis(50),
        attempts: 2,
    }
}

/// One name per outcome the wire can give.
fn outcome_store() -> Arc<ZoneStore> {
    let store = Arc::new(ZoneStore::new());
    store.add_txt(&dom("rec.example"), "v=spf1 ip4:192.0.2.0/24 -all");
    store.add_txt(&dom("cached.example"), "v=spf1 -all");
    store.add_a(&dom("a-only.example"), Ipv4Addr::new(192, 0, 2, 1));
    store.add_mx(&dom("rec.example"), 10, &dom("mx.rec.example"));
    store.set_fault(&dom("sf.example"), ZoneFault::ServFail);
    store.set_fault(&dom("ref.example"), ZoneFault::Refused);
    store.add_txt(&dom("dead.example"), "v=spf1 -all");
    store.set_fault(&dom("dead.example"), ZoneFault::Timeout);
    let long = "v=spf1 ".to_string() + &"ip4:198.51.100.0/24 ".repeat(40) + "-all";
    store.add_txt(&dom("huge.example"), &long);
    store
}

/// Record, NXDOMAIN, NOERROR/empty, SERVFAIL, REFUSED, server silence,
/// truncation → TCP, a cache hit, and the same question twice.
fn outcome_table() -> Vec<Question> {
    vec![
        q("rec.example", RecordType::Txt),
        q("rec.example", RecordType::Mx),
        q("missing.example", RecordType::Txt),
        q("a-only.example", RecordType::Txt),
        q("sf.example", RecordType::Txt),
        q("ref.example", RecordType::Txt),
        q("dead.example", RecordType::Txt),
        q("huge.example", RecordType::Txt),
        q("cached.example", RecordType::Txt),
        q("rec.example", RecordType::Txt),
    ]
}

#[test]
fn query_many_answers_and_counts_like_one_query_per_question() {
    let store = outcome_store();
    let fleet = WireFleet::spawn(&store, 2, ServerConfig { max_payload: 512 }).unwrap();
    let zone = ZoneResolver::new(store);
    let table = outcome_table();
    let run = |batched: bool| {
        let resolver = fleet.resolver(fast_config());
        resolver
            .query(&dom("cached.example"), RecordType::Txt)
            .unwrap();
        let results = if batched {
            ask_all(&resolver, &table)
        } else {
            table
                .iter()
                .map(|q| resolver.query(&q.name, q.rtype))
                .collect()
        };
        (results, resolver.snapshot())
    };
    let (batched, batched_snap) = run(true);
    let (single, single_snap) = run(false);
    let expected: Vec<_> = table.iter().map(|q| zone.query(&q.name, q.rtype)).collect();
    assert_eq!(batched, expected);
    assert_eq!(single, expected);
    assert_eq!(batched_snap, single_snap);
    // The table really reached every outcome it names.
    assert_eq!(batched[6], Err(DnsError::Timeout));
    assert_eq!(batched_snap.tcp_fallbacks, 1);
    assert_eq!(batched_snap.temp_errors, 1);
    assert_eq!(batched_snap.cache_hits, 2, "{batched_snap:?}");
    batched_snap.check_conservation().unwrap();
}

/// A peer that answers every datagram it receives with a 5-byte runt from
/// its own address, one runt per 5 ms, for up to two seconds.
fn spawn_flooder() -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let server = UdpSocket::bind("127.0.0.1:0").unwrap();
    server
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let addr = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut buf = [0u8; 512];
        let mut client = None;
        let started = Instant::now();
        while !flag.load(Ordering::Relaxed) && started.elapsed() < Duration::from_secs(2) {
            if let Ok((_, peer)) = server.recv_from(&mut buf) {
                client = Some(peer);
            }
            if let Some(peer) = client {
                let _ = server.send_to(&[0xde, 0xad, 0xbe, 0xef, 0x00], peer);
            }
        }
    });
    (addr, stop, handle)
}

#[test]
fn garbage_flood_cannot_hold_a_batched_call_past_its_budget() {
    let (addr, stop, flooder) = spawn_flooder();
    let config = WireClientConfig::crawl();
    let resolver = WireResolver::new(vec![addr], config);
    let questions: Vec<Question> = (0..4)
        .map(|i| q(&format!("flooded{i}.example"), RecordType::Txt))
        .collect();
    let started = Instant::now();
    let results = ask_all(&resolver, &questions);
    let held = started.elapsed();
    stop.store(true, Ordering::Relaxed);
    flooder.join().unwrap();
    assert_eq!(results, vec![Err(DnsError::Timeout); 4]);
    assert!(
        held <= config.timeout * 2 * config.attempts as u32,
        "the flood held the call for {held:?}"
    );
    let snap = resolver.snapshot();
    assert_eq!(snap.wire_queries, 4 * config.attempts as u64);
    assert_eq!(snap.temp_errors, 4);
    snap.check_conservation().unwrap();
}

#[test]
fn overlapping_batched_calls_all_finish_with_the_zone_answers() {
    // Eight callers ask overlapping question sets in different orders, so
    // each leads some questions another has joined. Silent names hold
    // their flights open for the whole retry budget, widening the window
    // in which two calls wait on each other.
    let store = Arc::new(ZoneStore::new());
    let mut names = Vec::new();
    for i in 0..12 {
        let name = format!("n{i}.example");
        store.add_txt(&dom(&name), &format!("v=spf1 ip4:10.0.0.{i} -all"));
        names.push(name);
    }
    for i in 0..4 {
        let name = format!("silent{i}.example");
        store.add_txt(&dom(&name), "v=spf1 -all");
        store.set_fault(&dom(&name), ZoneFault::Timeout);
        names.push(name);
    }
    let fleet = WireFleet::spawn(&store, 2, ServerConfig::default()).unwrap();
    let zone = ZoneResolver::new(store);
    let config = WireClientConfig {
        timeout: Duration::from_millis(20),
        ..fast_config()
    };
    for round in 0..5 {
        let resolver = fleet.resolver(config);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let (resolver, zone, names) = (&resolver, &zone, &names);
                scope.spawn(move || {
                    let mut picked: Vec<Question> = (0..8)
                        .map(|k| {
                            q(
                                &names[(t * 3 + k * 5 + round) % names.len()],
                                RecordType::Txt,
                            )
                        })
                        .collect();
                    if t % 2 == 1 {
                        picked.reverse();
                    }
                    let results = ask_all(resolver, &picked);
                    for (question, result) in picked.iter().zip(results) {
                        assert_eq!(
                            result,
                            zone.query(&question.name, question.rtype),
                            "{question}"
                        );
                    }
                });
            }
        });
        resolver.snapshot().check_conservation().unwrap();
    }
}

/// A system clock whose first reading after [`GateClock::arm`] stops the
/// reading thread: it reports on `entered` and waits on `release`.
struct GateClock {
    inner: SystemClock,
    gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl GateClock {
    fn arm(&self, entered: mpsc::Sender<()>, release: mpsc::Receiver<()>) {
        *self.gate.lock().unwrap() = Some((entered, release));
    }
}

impl Clock for GateClock {
    fn now(&self) -> Duration {
        let gate = self.gate.lock().unwrap().take();
        if let Some((entered, release)) = gate {
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        self.inner.now()
    }

    fn sleep(&self, d: Duration) {
        self.inner.sleep(d)
    }
}

/// A name server answering from `store` that reports on `seen` the first
/// time it is asked about `watch`.
fn spawn_watching_server(
    store: Arc<ZoneStore>,
    watch: DomainName,
    seen: mpsc::Sender<()>,
    stop: Arc<AtomicBool>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let addr = socket.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut seen = Some(seen);
        let mut buf = [0u8; 512];
        while !stop.load(Ordering::Relaxed) {
            let Ok((len, peer)) = socket.recv_from(&mut buf) else {
                continue;
            };
            let query = decode(&buf[..len]).unwrap();
            let question = &query.questions[0];
            if question.name == watch {
                if let Some(seen) = seen.take() {
                    seen.send(()).unwrap();
                }
            }
            let answers = match store.lookup_question(question) {
                LookupOutcome::Records(rrs) => rrs,
                other => panic!("unexpected {other:?}"),
            };
            let reply = encode(&Message::response(&query, Rcode::NoError, answers)).unwrap();
            socket.send_to(&reply, peer).unwrap();
        }
    });
    (addr, handle)
}

#[test]
fn two_calls_leading_each_others_questions_both_finish() {
    // Call A leads x and is held inside its cache probe of c until call B
    // has led y, joined A's x and put y on the wire. A then joins B's y
    // while B waits on x: a call that waited on its joined flights before
    // completing its own would hold both calls forever.
    let (x, c, y) = (dom("x.example"), dom("c.example"), dom("y.example"));
    let store = Arc::new(ZoneStore::new());
    for name in [&x, &c, &y] {
        store.add_txt(name, &format!("v=spf1 include:{name} -all"));
    }
    let zone = ZoneResolver::new(Arc::clone(&store));
    let (seen_tx, seen_rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let (addr, server) = spawn_watching_server(store, y.clone(), seen_tx, Arc::clone(&stop));
    let clock = Arc::new(GateClock {
        inner: SystemClock::new(),
        gate: Mutex::new(None),
    });
    let resolver = Arc::new(WireResolver::with_clock(
        vec![addr],
        fast_config(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    ));
    resolver.query(&c, RecordType::Txt).unwrap();
    let (entered_tx, entered_rx) = mpsc::channel();
    clock.arm(entered_tx, seen_rx);

    let (done_tx, done_rx) = mpsc::channel();
    let call = |questions: Vec<Question>| {
        let (resolver, done) = (Arc::clone(&resolver), done_tx.clone());
        std::thread::spawn(move || {
            let results = ask_all(&resolver, &questions);
            done.send((questions, results)).unwrap();
        })
    };
    let a = call(vec![
        Question::new(x.clone(), RecordType::Txt),
        Question::new(c, RecordType::Txt),
        Question::new(y.clone(), RecordType::Txt),
    ]);
    entered_rx.recv().unwrap();
    let b = call(vec![
        Question::new(y, RecordType::Txt),
        Question::new(x, RecordType::Txt),
    ]);
    for _ in 0..2 {
        let (questions, results) = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("calls leading each other's questions deadlocked");
        for (question, result) in questions.iter().zip(results) {
            assert_eq!(result, zone.query(&question.name, question.rtype));
        }
    }
    a.join().unwrap();
    b.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    server.join().unwrap();
    let snap = resolver.snapshot();
    assert!(snap.coalesced >= 1, "B never joined A's flight: {snap:?}");
    snap.check_conservation().unwrap();
}
