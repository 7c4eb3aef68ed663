//! The load generator: one thread, one `UdpSocket`, speaking the
//! service's wire protocol through `spf_service::proto`. The plan is
//! encoded before the clock starts; a closed loop keeps a fixed window
//! of queries outstanding, an open loop sends on a schedule and times
//! every query from the instant it was *due*.
//!
//! Fixed-size buffers: one 64 KiB receive buffer, one `RING`-slot
//! in-flight table, and the latency vectors reserved up front.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use spf_service::proto::{decode_datagram, encode_frame, Frame, QueryFrame, Status};
use spf_service::QuerySpec;

use crate::check::fnv1a;
use crate::host::ProcUsage;
use crate::stats::LatencyRecorder;
use crate::trace::Tracer;

/// In-flight slots; a query's slot is `plan index % RING`.
pub const RING: usize = 4096;
/// Silence after which every outstanding query counts as lost.
const LOSS_TIMEOUT: Duration = Duration::from_millis(250);
/// Most queries the open loop keeps outstanding. At a tenth of capacity
/// a handful are; the cap only bites after the generator itself was
/// stalled (the guest descheduled for 100 ms is 1 000 overdue queries),
/// when sending the whole backlog at once would overflow the service's
/// 1 024-job queue and turn a host hiccup into shed queries. The
/// backlog still goes out, each query timed from when it was due.
const OPEN_MAX_OUTSTANDING: usize = 512;
/// One response body in this many is kept for the byte comparison.
pub const SAMPLE_EVERY: u64 = 64;

/// A query plan encoded once: query `i` carries id `i`.
#[derive(Default)]
pub struct Plan {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl Plan {
    /// Append `specs`, encoded through `proto::encode_frame`; ids
    /// continue from the plan's length, so a long plan can be built from
    /// chunks without holding every spec at once.
    pub fn extend(&mut self, specs: &[QuerySpec]) {
        self.bytes.reserve(specs.len() * 56);
        self.ends.reserve(specs.len());
        for spec in specs {
            self.bytes
                .extend_from_slice(&encode_frame(&Frame::Query(QueryFrame {
                    id: self.ends.len() as u64,
                    ip: spec.ip,
                    domain: spec.domain.clone(),
                    sender_local: spec.sender_local.clone(),
                    stack: spec.stack,
                })));
            self.ends
                .push(u32::try_from(self.bytes.len()).expect("plan under 4 GiB"));
        }
    }

    /// FNV-1a over every encoded frame, in order.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }

    /// Queries in the plan.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn frame(&self, index: usize) -> &[u8] {
        let start = if index == 0 {
            0
        } else {
            self.ends[index - 1] as usize
        };
        &self.bytes[start..self.ends[index] as usize]
    }
}

/// Walks a plan: in order, wrapping to the start when allowed.
pub struct Cursor {
    next: usize,
    wrap: bool,
}

impl Cursor {
    /// A cursor at the plan's first query. With `wrap` the plan repeats
    /// (hot traffic *is* repetition); without, it ends (a cold plan
    /// must never repeat a pair).
    pub fn new(wrap: bool) -> Cursor {
        Cursor { next: 0, wrap }
    }

    fn take(&mut self, plan: &Plan) -> Option<usize> {
        if self.next == plan.len() {
            if !self.wrap || plan.is_empty() {
                return None;
            }
            self.next = 0;
        }
        self.next += 1;
        Some(self.next - 1)
    }
}

/// Counts answers and keeps the sampled bodies; socket-free so the
/// failure accounting can be tested on hand-made datagrams.
#[derive(Default)]
pub struct Checker {
    /// Queries sent.
    pub sent: u64,
    /// Responses that decoded, matched an outstanding id and said `ok`.
    pub ok: u64,
    /// Everything else: undecodable, wrong kind, non-`ok`, lost, shed.
    pub failed: u64,
    /// Body of plan query `i × SAMPLE_EVERY` at index `i`, first `ok`
    /// answer only.
    samples: Vec<Option<Vec<u8>>>,
}

impl Checker {
    /// Classify one received datagram: the echoed id and whether the
    /// status was `ok`, or `None` when it is not a response frame at
    /// all (the query it answered stays outstanding and is counted as
    /// lost when the phase drains).
    pub fn on_datagram(&mut self, datagram: &[u8]) -> Option<(u64, bool)> {
        match decode_datagram(datagram) {
            Ok(Frame::Response(response)) => {
                let ok = response.status == Status::Ok;
                if ok && response.id.is_multiple_of(SAMPLE_EVERY) {
                    let index = (response.id / SAMPLE_EVERY) as usize;
                    if self.samples.len() <= index {
                        self.samples.resize(index + 1, None);
                    }
                    self.samples[index].get_or_insert(response.body);
                }
                Some((response.id, ok))
            }
            Ok(Frame::Query(_)) | Err(_) => None,
        }
    }

    /// Sampled bodies kept so far.
    pub fn sampled(&self) -> usize {
        self.samples.iter().flatten().count()
    }

    /// Compare every sampled body with `expected(plan index)`; a
    /// mismatch turns that `ok` into a failure. Returns the mismatches.
    pub fn verify_samples(&mut self, mut expected: impl FnMut(usize) -> Vec<u8>) -> u64 {
        let mismatched = self
            .samples
            .iter()
            .enumerate()
            .filter(|(i, body)| {
                body.as_ref()
                    .is_some_and(|body| expected(i * SAMPLE_EVERY as usize) != *body)
            })
            .count() as u64;
        self.ok -= mismatched;
        self.failed += mismatched;
        mismatched
    }
}

/// When query `k` of an open-loop phase is due, and the two clocks that
/// start there: how late it was sent and how long its answer took.
pub struct OpenLedger {
    interval: Duration,
    /// Due-time → reply, per query; a failed query is `NEVER`.
    pub latency: LatencyRecorder,
    /// Due-time → actual send, per query: how late the generator ran.
    pub late: LatencyRecorder,
}

impl OpenLedger {
    /// A ledger for `count` queries at `rate` per second.
    pub fn new(rate: f64, count: usize) -> OpenLedger {
        OpenLedger {
            interval: Duration::from_secs_f64(1.0 / rate),
            latency: LatencyRecorder::with_capacity(count),
            late: LatencyRecorder::with_capacity(count),
        }
    }

    /// Offset from the phase start at which query `k` is due.
    pub fn due(&self, k: u64) -> Duration {
        self.interval.mul_f64(k as f64)
    }

    /// Query `k` left the socket at offset `now`.
    pub fn on_send(&mut self, k: u64, now: Duration) {
        self.late.record(now.saturating_sub(self.due(k)));
    }

    /// Query `k` was answered `ok` at offset `now`: the latency runs
    /// from the due time, so a generator stall lengthens it.
    pub fn on_reply(&mut self, k: u64, now: Duration) {
        self.latency.record(now.saturating_sub(self.due(k)));
    }

    /// Query `k` was lost, shed or answered non-`ok`.
    pub fn on_failure(&mut self) {
        self.latency.record_never();
    }
}

/// One outstanding query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Position in the generator's send order.
    pub sequence: u64,
    /// Position in the plan, which is also the id on the wire.
    pub plan_index: usize,
    /// When it left the socket.
    pub sent_at: Instant,
}

/// The outstanding queries, by `plan_index % RING`. A cursor hands out
/// consecutive plan indices, so fewer than `RING` outstanding queries
/// never share a slot except across a plan's wrap seam; plans sized in
/// multiples of [`RING`] close that gap too.
pub struct Ring {
    slots: Vec<Option<InFlight>>,
    outstanding: usize,
}

impl Default for Ring {
    fn default() -> Self {
        Ring {
            slots: vec![None; RING],
            outstanding: 0,
        }
    }
}

impl Ring {
    /// Track a sent query. Returns `true` when its slot still held an
    /// unanswered one, which is thereby lost.
    pub fn insert(&mut self, flight: InFlight) -> bool {
        let lapped = self.slots[flight.plan_index % RING]
            .replace(flight)
            .is_some();
        if !lapped {
            self.outstanding += 1;
        }
        lapped
    }

    /// The outstanding query a response with wire id `id` answers.
    pub fn complete(&mut self, id: u64) -> Option<InFlight> {
        let slot = &mut self.slots[(id % RING as u64) as usize];
        if slot.is_some_and(|flight| flight.plan_index as u64 == id) {
            self.outstanding -= 1;
            slot.take()
        } else {
            None // a duplicate, or an answer to a query already given up
        }
    }

    /// Give up on every outstanding query; returns how many.
    pub fn drain(&mut self) -> usize {
        self.slots.fill(None);
        std::mem::take(&mut self.outstanding)
    }

    /// Queries sent and not yet answered or given up.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

/// The generator: a connected socket and its in-flight table.
pub struct Generator {
    socket: UdpSocket,
    buf: Vec<u8>,
    ring: Ring,
    sequence: u64,
}

impl Generator {
    /// Bind an ephemeral loopback socket connected to `server`.
    pub fn connect(server: SocketAddr) -> std::io::Result<Generator> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.connect(server)?;
        Ok(Generator {
            socket,
            buf: vec![0u8; 65_536],
            ring: Ring::default(),
            sequence: 0,
        })
    }

    /// Send plan query `plan_index`; returns how many queries this made
    /// a failure (the send itself, or an unanswered one it lapped).
    fn send(&mut self, plan: &Plan, plan_index: usize, checker: &mut Checker) -> u64 {
        let sequence = self.sequence;
        self.sequence += 1;
        checker.sent += 1;
        let failed = match self.socket.send(plan.frame(plan_index)) {
            Ok(_) => u64::from(self.ring.insert(InFlight {
                sequence,
                plan_index,
                sent_at: Instant::now(),
            })),
            Err(_) => 1,
        };
        checker.failed += failed;
        failed
    }

    fn lose_outstanding(&mut self, checker: &mut Checker) -> usize {
        let lost = self.ring.drain();
        checker.failed += lost as u64;
        lost
    }

    /// Closed loop: send `queries` queries (fewer if the plan ends)
    /// keeping `window` outstanding, then drain. A receiver that waits
    /// for the verdict before accepting the message is this loop.
    /// Returns the `ok` answers, the wall time and the process's CPU use.
    pub fn closed_loop(
        &mut self,
        plan: &Plan,
        cursor: &mut Cursor,
        window: usize,
        queries: u64,
        checker: &mut Checker,
        tracer: &mut Tracer,
    ) -> std::io::Result<(u64, Duration, ProcUsage)> {
        self.socket.set_nonblocking(false)?;
        self.socket.set_read_timeout(Some(LOSS_TIMEOUT))?;
        let usage_before = ProcUsage::now();
        let started = Instant::now();
        let ok_before = checker.ok;
        let mut to_send = queries;
        let mut silent = 0u32;
        loop {
            while to_send > 0 && self.ring.outstanding() < window {
                match cursor.take(plan) {
                    Some(index) => {
                        self.send(plan, index, checker);
                        to_send -= 1;
                    }
                    None => to_send = 0,
                }
            }
            if self.ring.outstanding() == 0 {
                break;
            }
            match self.socket.recv(&mut self.buf) {
                Ok(len) => {
                    let now = Instant::now();
                    silent = 0;
                    // An undecodable datagram matches nothing; its query
                    // is counted as lost when the loop drains.
                    if let Some((id, ok)) = checker.on_datagram(&self.buf[..len]) {
                        if let Some(flight) = self.ring.complete(id) {
                            if ok {
                                checker.ok += 1;
                            } else {
                                checker.failed += 1;
                            }
                            tracer.leaf("query", flight.sent_at, now, flight.sequence);
                        }
                    }
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // One silent timeout can be the guest itself having
                    // been descheduled past the deadline; the second one
                    // was spent running.
                    silent += 1;
                    if silent == 2 {
                        self.lose_outstanding(checker);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok((
            checker.ok - ok_before,
            started.elapsed(),
            ProcUsage::now().since(&usage_before),
        ))
    }

    /// Open loop: send `count` queries at `rate` per second whatever the
    /// answers do — independent senders — and time each from its due
    /// instant. Between sends the thread polls the socket and yields.
    pub fn open_loop(
        &mut self,
        plan: &Plan,
        cursor: &mut Cursor,
        rate: f64,
        count: usize,
        checker: &mut Checker,
        tracer: &mut Tracer,
    ) -> std::io::Result<OpenLedger> {
        self.socket.set_nonblocking(true)?;
        let mut ledger = OpenLedger::new(rate, count);
        // sequence → open-loop ordinal, for the due time of a reply.
        let first_sequence = self.sequence;
        let started = Instant::now();
        let mut next = 0u64;
        let mut last_progress = started;
        let mut silent = 0u32;
        while (next as usize) < count || self.ring.outstanding() > 0 {
            let mut now = Instant::now();
            while (next as usize) < count
                && now - started >= ledger.due(next)
                && self.ring.outstanding() < OPEN_MAX_OUTSTANDING
            {
                let Some(index) = cursor.take(plan) else {
                    // Plan exhausted: the remaining queries were never
                    // attempted, so they are not failures either.
                    next = count as u64;
                    break;
                };
                for _ in 0..self.send(plan, index, checker) {
                    ledger.on_failure();
                }
                now = Instant::now();
                ledger.on_send(next, now - started);
                next += 1;
                last_progress = now;
            }
            match self.socket.recv(&mut self.buf) {
                Ok(len) => {
                    let now = Instant::now();
                    last_progress = now;
                    silent = 0;
                    // As in the closed loop, an undecodable datagram's
                    // query is counted as lost when the phase drains.
                    if let Some((id, ok)) = checker.on_datagram(&self.buf[..len]) {
                        if let Some(flight) = self.ring.complete(id) {
                            if ok {
                                checker.ok += 1;
                                ledger.on_reply(flight.sequence - first_sequence, now - started);
                            } else {
                                checker.failed += 1;
                                ledger.on_failure();
                            }
                            tracer.leaf("query", flight.sent_at, now, flight.sequence);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if (next as usize) >= count && last_progress.elapsed() >= LOSS_TIMEOUT {
                        // Two strikes, as in the closed loop.
                        silent += 1;
                        last_progress = Instant::now();
                        if silent == 2 {
                            for _ in 0..self.lose_outstanding(checker) {
                                ledger.on_failure();
                            }
                        }
                    } else {
                        std::thread::yield_now();
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_service::proto::ResponseFrame;

    fn response(id: u64, status: Status, body: &[u8]) -> Vec<u8> {
        encode_frame(&Frame::Response(ResponseFrame {
            id,
            status,
            body: body.to_vec(),
        }))
    }

    #[test]
    fn a_stalled_generator_lengthens_the_latency_it_reports() {
        // 10 000 q/s: one query every 100 µs. The generator stalls for
        // 5 ms before sending query 10; the service answers each query
        // 50 µs after it actually left.
        let mut ledger = OpenLedger::new(10_000.0, 20);
        let service = Duration::from_micros(50);
        for k in 0..20u64 {
            let stall = if k >= 10 {
                Duration::from_millis(5)
            } else {
                Duration::ZERO
            };
            let sent = ledger.due(k) + stall;
            ledger.on_send(k, sent);
            ledger.on_reply(k, sent + service);
        }
        assert_eq!(ledger.due(10), Duration::from_millis(1));
        let latency = ledger.latency.sorted();
        // Half the queries waited out the stall: it shows in the median
        // of the upper half and in the maximum, not just in `late`.
        assert_eq!(latency.quantile_us(0.5), Some(50.0));
        assert_eq!(latency.quantile_us(0.75), Some(5050.0));
        assert_eq!(latency.max_us(), Some(5050.0));
        assert_eq!(ledger.late.sorted().max_us(), Some(5000.0));
    }

    #[test]
    fn a_corrupted_and_a_dropped_response_are_both_failures() {
        let mut checker = Checker::default();
        let mut ring = Ring::default();
        for plan_index in 0..3 {
            checker.sent += 1;
            assert!(!ring.insert(InFlight {
                sequence: plan_index as u64,
                plan_index,
                sent_at: Instant::now(),
            }));
        }
        // Query 0: a good answer, sampled.
        let good = response(0, Status::Ok, b"{\"result\":\"pass\"}");
        let (id, ok) = checker.on_datagram(&good).unwrap();
        assert!(ok && ring.complete(id).is_some());
        checker.ok += 1;
        // Query 1: the datagram arrives truncated and matches nothing.
        let mut corrupted = response(1, Status::Ok, b"{\"result\":\"fail\"}");
        corrupted.truncate(corrupted.len() - 3);
        assert_eq!(checker.on_datagram(&corrupted), None);
        // Query 2: never answered. The drain gives up on both.
        assert_eq!(ring.outstanding(), 2);
        checker.failed += ring.drain() as u64;
        assert_eq!((checker.ok, checker.failed), (1, 2));
        // A late duplicate of the good answer matches nothing.
        assert!(ring.complete(0).is_none());
        // A sampled body that differs from the reference is a failure
        // even though its status said ok.
        assert_eq!(checker.sampled(), 1);
        let mismatched = checker.verify_samples(|_| b"{\"result\":\"fail\"}".to_vec());
        assert_eq!(mismatched, 1);
        assert_eq!((checker.ok, checker.failed), (0, 3));
        assert_eq!(checker.ok + checker.failed, checker.sent);
    }

    #[test]
    fn shed_answers_are_not_ok_and_only_first_samples_are_kept() {
        let mut checker = Checker::default();
        let shed = response(64, Status::Overloaded, b"request queue full");
        assert_eq!(checker.on_datagram(&shed), Some((64, false)));
        assert_eq!(checker.sampled(), 0);
        checker.on_datagram(&response(64, Status::Ok, b"a"));
        checker.on_datagram(&response(64, Status::Ok, b"b"));
        checker.ok = 2;
        assert_eq!(checker.sampled(), 1);
        assert_eq!(
            checker.verify_samples(|index| {
                assert_eq!(index, 64);
                b"a".to_vec()
            }),
            0
        );
    }

    #[test]
    fn a_lapped_slot_loses_the_older_query() {
        let mut ring = Ring::default();
        let flight = |plan_index| InFlight {
            sequence: 0,
            plan_index,
            sent_at: Instant::now(),
        };
        assert!(!ring.insert(flight(5)));
        assert!(ring.insert(flight(5 + RING)));
        assert_eq!(ring.outstanding(), 1);
        assert!(ring.complete(5).is_none());
        assert!(ring.complete((5 + RING) as u64).is_some());
        assert_eq!(ring.outstanding(), 0);
    }

    #[test]
    fn a_cursor_wraps_only_when_told_to() {
        let specs: Vec<QuerySpec> = (0..3)
            .map(|i| QuerySpec {
                ip: std::net::IpAddr::from([192, 0, 2, i]),
                domain: spf_types::DomainName::parse("example.com").unwrap(),
                sender_local: "x".into(),
                stack: false,
            })
            .collect();
        let mut plan = Plan::default();
        plan.extend(&specs);
        assert_eq!(plan.len(), 3);
        assert_ne!(plan.frame(0), plan.frame(2));
        let mut once = Cursor::new(false);
        let taken: Vec<_> = std::iter::from_fn(|| once.take(&plan)).collect();
        assert_eq!(taken, vec![0, 1, 2]);
        let mut around = Cursor::new(true);
        let taken: Vec<_> = (0..5).filter_map(|_| around.take(&plan)).collect();
        assert_eq!(taken, vec![0, 1, 2, 0, 1]);
        let mut again = Plan::default();
        again.extend(&specs);
        assert_eq!(again.digest(), plan.digest());
    }
}
