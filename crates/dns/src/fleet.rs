//! The wire-path crawl substrate: a sharded authoritative server fleet
//! plus the production-shaped stub-resolver client the crawler points at
//! it.
//!
//! The paper's measurement pushed 12.8M domains' worth of DNS queries
//! through 150 rate-limited resolver endpoints on the open Internet —
//! timeouts, lost packets and TCP fallback all shaped which domains
//! produced analyzable records. The in-memory
//! [`crate::resolver::ZoneResolver`] path deliberately skips all of that
//! machinery; this module closes the gap so the *entire* pipeline can run
//! over real sockets:
//!
//! * [`WireFleet`] — the authoritative side: N [`UdpNameServer`]
//!   shards, every one answering from the same live [`ZoneStore`]. The
//!   client routes each name to one shard by
//!   [`DomainName::precomputed_hash`], so a shard's load is its slice of
//!   the names, and a zone edit is served by every shard at once: no
//!   fleet is rebuilt after it, only the client's answer cache cleared
//!   ([`WireResolver::clear_cache`]).
//! * [`WireResolver`] — the client side: a lazily grown socket pool,
//!   batched lookups ([`Resolver::query_many`] sends a call's questions
//!   with one `sendmmsg` and drains the replies with `recvmmsg`, so a
//!   crawled domain's root questions wait on the network once),
//!   single-flight query coalescing (concurrent workers asking for the
//!   same `include:` target share one in-flight datagram), TTL-aware
//!   positive *and* negative caching, RFC 7766 TCP fallback on
//!   truncation, and a retry/timeout budget that degrades to
//!   [`DnsError::Timeout`] — the same `temperror` surface the in-memory
//!   fault path presents, so the walker cannot tell the transports apart.
//!
//! DNS failures come from the zone alone: a name's [`crate::ZoneFault`]
//! makes every shard stay silent, answer SERVFAIL or refuse, exactly as
//! [`crate::resolver::ZoneResolver`] reports it in process. So the wire
//! path is *observationally identical* to the in-memory path: the
//! façade's `wire_stress` suite serializes both report streams at scale
//! 1:500 and compares them byte for byte across worker × shard matrices,
//! and `fault_injection` does the same over a zone with a faulted slice
//! of one shard's names.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use nix::sys::socket::{recv_from_batch, set_recv_buffer_size, RecvSlot, SendPacket};
use serde::{Deserialize, Serialize};
use spf_types::{DomainName, StatItem, Stats};

use crate::clock::{Clock, SystemClock};
use crate::inline::InlineVec;
use crate::lock;
use crate::record::{Question, RecordType, ResourceRecord};
use crate::resolver::{DnsError, Resolver};
use crate::udp::{
    answers_of, send_all, tcp_query, ServerConfig, UdpNameServer, SERVE_BATCH, SERVE_RECV_BUFFER,
};
use crate::wire::{self, Message};
use crate::zone::ZoneStore;

/// Cap applied to positive TTLs taken from answer records.
const MAX_RECORD_TTL: Duration = Duration::from_secs(3600);

/// How long NXDOMAIN / empty / REFUSED answers are cached (RFC
/// 2308-style negative caching). Transient errors are never cached.
const NEGATIVE_TTL: Duration = Duration::from_secs(300);

/// Idle sockets kept in the client's pool; bursts beyond the cap create
/// throwaway sockets instead of blocking.
const MAX_POOLED_SOCKETS: usize = 64;

/// Client-side knobs of the wire path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireClientConfig {
    /// Per-attempt receive timeout.
    pub timeout: Duration,
    /// UDP attempts before the query degrades to [`DnsError::Timeout`]
    /// (`temperror`), mirroring the in-memory fault path.
    pub attempts: usize,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        WireClientConfig {
            timeout: Duration::from_millis(120),
            attempts: 3,
        }
    }
}

impl WireClientConfig {
    /// The crawl profile: loopback round trips are tens of microseconds,
    /// so a short per-attempt timeout keeps the population's deliberate
    /// timeout cohorts (server silence) from dominating wall-clock time
    /// while still leaving three orders of magnitude of headroom for a
    /// busy single-threaded server shard.
    pub fn crawl() -> Self {
        WireClientConfig {
            timeout: Duration::from_millis(60),
            attempts: 2,
        }
    }
}

/// Monotonic counters of a [`WireResolver`], exposed as a [`WireSnapshot`].
#[derive(Debug, Default)]
struct WireCounters {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_expired: AtomicU64,
    coalesced: AtomicU64,
    wire_queries: AtomicU64,
    retries: AtomicU64,
    tcp_fallbacks: AtomicU64,
    temp_errors: AtomicU64,
}

/// Point-in-time copy of a [`WireResolver`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSnapshot {
    /// Resolver-level queries received from the walker.
    pub queries: u64,
    /// Queries answered from the TTL cache.
    pub cache_hits: u64,
    /// Cache probes that found an entry past its TTL (counted as misses).
    pub cache_expired: u64,
    /// Queries that joined another caller's in-flight wire query instead
    /// of sending their own (single-flight coalescing).
    pub coalesced: u64,
    /// UDP datagrams actually sent (including retry attempts).
    pub wire_queries: u64,
    /// Retry attempts beyond each query's first datagram.
    pub retries: u64,
    /// Truncated UDP responses retried over TCP (RFC 7766).
    pub tcp_fallbacks: u64,
    /// Queries that exhausted the retry budget and degraded to
    /// [`DnsError::Timeout`].
    pub temp_errors: u64,
}

impl WireSnapshot {
    /// Wire datagrams per crawled domain — the paper's query-amplification
    /// figure (how many packets one domain's analysis costs).
    pub fn amplification(&self, domains: u64) -> f64 {
        if domains == 0 {
            0.0
        } else {
            self.wire_queries as f64 / domains as f64
        }
    }

    /// Fraction of resolver queries that coalesced onto another caller's
    /// in-flight wire query.
    pub fn coalesce_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.coalesced as f64 / self.queries as f64
        }
    }

    /// Fraction of resolver queries served from the TTL cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Check the counter laws of a [`WireResolver`] at rest (no call in
    /// flight); `Err` names the broken law and the counters.
    ///
    /// * Every query is a cache hit, a coalesced join, or the first
    ///   datagram of a question the resolver led:
    ///   `queries == cache_hits + coalesced + (wire_queries − retries)`.
    /// * `retries == temp_errors`: the law of the crawl profile
    ///   ([`WireClientConfig::crawl`], two attempts) on a fleet that
    ///   loses no datagram, where a question is re-sent only when it is
    ///   going to time out.
    ///
    /// The laws count from the resolver's construction, so they hold up
    /// to the first [`WireResolver::clear_cache`]: a clear resets
    /// `queries`, `cache_hits` and `coalesced` and keeps the transport
    /// counters.
    pub fn check_conservation(&self) -> Result<(), String> {
        let first_datagrams = self.wire_queries.checked_sub(self.retries);
        let accounted = first_datagrams.map(|first| self.cache_hits + self.coalesced + first);
        if accounted != Some(self.queries) {
            return Err(format!(
                "queries != cache_hits + coalesced + (wire_queries - retries): {self:?}"
            ));
        }
        if self.retries != self.temp_errors {
            return Err(format!("retries != temp_errors: {self:?}"));
        }
        Ok(())
    }

    /// This snapshot as a [`Stats`] line: the per-domain amplification
    /// needs the crawl's domain count, so the view binds it in.
    pub fn stats_view(&self, domains: u64) -> WireStatsView {
        WireStatsView {
            snapshot: *self,
            domains,
        }
    }
}

/// A [`WireSnapshot`] bound to a crawl's domain count, rendering the
/// `[wire]` telemetry line through the shared [`Stats`] formatter.
#[derive(Debug, Clone, Copy)]
pub struct WireStatsView {
    /// The counters.
    pub snapshot: WireSnapshot,
    /// Domains the crawl covered (denominator of the amplification).
    pub domains: u64,
}

impl Stats for WireStatsView {
    fn scope(&self) -> &'static str {
        "wire"
    }

    fn items(&self) -> Vec<StatItem> {
        let s = &self.snapshot;
        vec![
            StatItem::float("amplification", s.amplification(self.domains)),
            StatItem::count("datagrams", s.wire_queries),
            StatItem::count("tcp_fallbacks", s.tcp_fallbacks),
            StatItem::percent("coalesced", s.coalesce_rate()),
            StatItem::percent("cache_hit", s.cache_hit_rate()),
            StatItem::count("retries", s.retries),
            StatItem::count("temp_errors", s.temp_errors),
        ]
    }
}

/// A sharded authoritative name-server fleet over one live zone.
///
/// Dropping the fleet shuts the servers down; keep it alive for the whole
/// crawl.
pub struct WireFleet {
    servers: Vec<UdpNameServer>,
}

impl WireFleet {
    /// Spawn `shards` [`UdpNameServer`]s (at least one), every one with
    /// the same `config` and answering from `store` itself: an edit of
    /// the store is visible to the next question any shard reads.
    pub fn spawn(
        store: &Arc<ZoneStore>,
        shards: usize,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let servers = (0..shards.max(1))
            .map(|_| UdpNameServer::spawn(Arc::clone(store), config.clone()))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(WireFleet { servers })
    }

    /// The shard addresses, in routing order (the client sends names with
    /// `precomputed_hash() % shards == i` to index `i`).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.addr()).collect()
    }

    /// Shard `i`'s server handle.
    pub fn server(&self, i: usize) -> &UdpNameServer {
        &self.servers[i]
    }

    /// UDP responses sent, summed over all shards.
    pub fn answered(&self) -> u64 {
        self.servers.iter().map(|s| s.answered()).sum()
    }

    /// TCP responses sent (truncation fallbacks), summed over all shards.
    pub fn tcp_answered(&self) -> u64 {
        self.servers.iter().map(|s| s.tcp_answered()).sum()
    }

    /// A [`WireResolver`] pointed at this fleet, on the system clock.
    pub fn resolver(&self, config: WireClientConfig) -> WireResolver {
        WireResolver::new(self.addrs(), config)
    }
}

/// The shared result of one single-flight wire query. The first
/// follower to join a question creates it; followers block on the
/// condvar until the leader publishes the result.
struct Flight {
    state: Mutex<Option<Result<Vec<ResourceRecord>, DnsError>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// Park until the result is published, then return a clone of it.
    fn wait(&self) -> Result<Vec<ResourceRecord>, DnsError> {
        let mut st = lock(&self.state);
        while st.is_none() {
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.as_ref().expect("checked above").clone()
    }

    fn complete(&self, result: Result<Vec<ResourceRecord>, DnsError>) {
        *lock(&self.state) = Some(result);
        self.ready.notify_all();
    }
}

/// One cached answer with its expiry instant (on the resolver's clock).
struct CacheEntry {
    result: Result<Vec<ResourceRecord>, DnsError>,
    expires_at: Duration,
}

/// Bytes a receive slot holds: a reply longer than this arrives cut
/// short, fails to decode and is discarded like any garbled datagram.
const RECV_SLOT_BYTES: usize = 4096;

/// One pooled client socket and the buffers its windows reuse: the
/// receive slots its drains fill, the window's query datagrams and its
/// led questions. They live as long as the socket and grow to the widest
/// window it has carried, so a call allocates none of them.
struct PooledSocket {
    socket: UdpSocket,
    slots: Vec<RecvSlot>,
    /// The window's query datagrams, back to back.
    queries: Vec<u8>,
    window: Vec<Outgoing>,
}

/// Lazily grown pool of client sockets. A socket is not tied to a shard:
/// one call sends to every shard its questions route to and tells the
/// replies apart by their peer.
struct SocketPool {
    idle: Mutex<Vec<PooledSocket>>,
}

impl SocketPool {
    fn new() -> Self {
        SocketPool {
            idle: Mutex::new(Vec::new()),
        }
    }

    fn acquire(&self, timeout: Duration) -> Result<PooledSocket, DnsError> {
        if let Some(s) = lock(&self.idle).pop() {
            return Ok(s);
        }
        let socket = UdpSocket::bind(("127.0.0.1", 0))
            .map_err(|e| DnsError::Network(format!("bind: {e}")))?;
        socket
            .set_read_timeout(Some(timeout))
            .map_err(|e| DnsError::Network(format!("timeout: {e}")))?;
        // Replies to a whole window can land at once; best effort, as on
        // the server side: a socket that keeps the default buffer works.
        let _ = set_recv_buffer_size(&socket, SERVE_RECV_BUFFER);
        Ok(PooledSocket {
            socket,
            slots: Vec::new(),
            queries: Vec::new(),
            window: Vec::new(),
        })
    }

    fn release(&self, socket: PooledSocket, cap: usize) {
        let mut idle = lock(&self.idle);
        if idle.len() < cap {
            idle.push(socket);
        }
    }
}

/// One led question of a call on its way over UDP.
struct Outgoing {
    /// Position in the call's input.
    index: usize,
    server: SocketAddrV4,
    id: u16,
    /// The query datagram: this range of the socket's `queries`.
    query: Range<usize>,
    reply: Option<Message>,
}

/// The wire-path stub resolver — the repo's one DNS-over-socket client:
/// hash-routed sharding, pooled sockets, single-flight coalescing, TTL
/// caching and TCP fallback behind the plain [`Resolver`] interface, so
/// the walker and crawler run unchanged.
///
/// Every lookup is a [`Resolver::query_many`] call; [`Resolver::query`]
/// is a call of one question. For each question in order the call counts
/// it in `queries`, probes the TTL cache, then joins another caller's
/// in-flight question or claims it; a claimed question is probed in the
/// cache once more, which sees any answer a leader cached before it
/// retired its flight, and led only on a miss. The led questions go out in
/// windows of at most `SERVE_BATCH` (64) on one pooled socket:
/// each attempt sends every unanswered question of the window with one
/// `sendmmsg`, and `recvmmsg` drains match replies by peer, id and the
/// response bit until the window is answered or the attempt's deadline
/// passes. A re-sent datagram counts one `retries`; a question still
/// unanswered after the last attempt becomes [`DnsError::Timeout`] and
/// counts one `temp_errors`; a truncated reply is fetched again over TCP
/// for that question alone. The call then caches and completes every
/// flight it leads *before* it waits on any flight it joined, so two
/// calls that each lead the other's questions cannot deadlock. A
/// question asked twice in one call is answered after the first, as if
/// asked by a later call.
pub struct WireResolver {
    servers: Vec<SocketAddr>,
    config: WireClientConfig,
    clock: Arc<dyn Clock>,
    counters: WireCounters,
    cache: RwLock<HashMap<Question, CacheEntry>>,
    /// The questions led to the wire right now, each with the flight its
    /// followers wait on — made by the first follower, so a question
    /// nobody joins costs no flight and no copy of its answer.
    inflight: Mutex<HashMap<Question, Option<Arc<Flight>>>>,
    pool: SocketPool,
    next_id: AtomicU64,
}

impl WireResolver {
    /// A resolver routing to `servers` (shard `i` of the fleet at index
    /// `i`), on the system clock.
    ///
    /// # Panics
    /// Panics when `servers` is empty.
    pub fn new(servers: Vec<SocketAddr>, config: WireClientConfig) -> Self {
        Self::with_clock(servers, config, Arc::new(SystemClock::new()))
    }

    /// Like [`WireResolver::new`] with an explicit clock (cache TTLs run
    /// on it).
    pub fn with_clock(
        servers: Vec<SocketAddr>,
        config: WireClientConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        assert!(
            !servers.is_empty(),
            "wire resolver needs at least one server"
        );
        WireResolver {
            servers,
            config,
            clock,
            counters: WireCounters::default(),
            cache: RwLock::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            pool: SocketPool::new(),
            next_id: AtomicU64::new(1),
        }
    }

    /// The shard index `name` routes to.
    fn shard_of(&self, name: &DomainName) -> usize {
        (name.precomputed_hash() % self.servers.len() as u64) as usize
    }

    /// Point-in-time copy of the resolver's counters.
    pub fn snapshot(&self) -> WireSnapshot {
        let c = &self.counters;
        WireSnapshot {
            queries: c.queries.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_expired: c.cache_expired.load(Ordering::Relaxed),
            coalesced: c.coalesced.load(Ordering::Relaxed),
            wire_queries: c.wire_queries.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            tcp_fallbacks: c.tcp_fallbacks.load(Ordering::Relaxed),
            temp_errors: c.temp_errors.load(Ordering::Relaxed),
        }
    }

    /// Number of live cache entries (expired entries still resident are
    /// not counted).
    pub fn cache_len(&self) -> usize {
        let now = self.clock.now();
        self.cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|e| e.expires_at > now)
            .count()
    }

    /// Drop every cached answer and reset the cache-epoch counters
    /// (`queries`, `cache_hits`, `cache_expired`, `coalesced`), so rates
    /// like [`WireSnapshot::cache_hit_rate`] describe the round after the
    /// clear instead of mixing epochs. Transport-lifetime counters
    /// (`wire_queries`, `retries`, `tcp_fallbacks`, `temp_errors`) keep
    /// accumulating.
    ///
    /// The fleet serves the live zone, but this cache holds an answer for
    /// its DNS TTL in real time, so a caller that edits the zone between
    /// crawls clears it first: `spf_bench::trends` after each epoch's
    /// churn batch, and `tests/churn_stress.rs` after each of its batches.
    pub fn clear_cache(&self) {
        self.cache
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        let c = &self.counters;
        c.queries.store(0, Ordering::Relaxed);
        c.cache_hits.store(0, Ordering::Relaxed);
        c.cache_expired.store(0, Ordering::Relaxed);
        c.coalesced.store(0, Ordering::Relaxed);
    }

    /// The live cached answer to `q`. An entry past its TTL reads as a
    /// miss and, when `count_expired`, counts one `cache_expired`.
    fn cache_get(
        &self,
        q: &Question,
        count_expired: bool,
    ) -> Option<Result<Vec<ResourceRecord>, DnsError>> {
        let cache = self.cache.read().unwrap_or_else(PoisonError::into_inner);
        let entry = cache.get(q)?;
        if entry.expires_at <= self.clock.now() {
            if count_expired {
                self.counters.cache_expired.fetch_add(1, Ordering::Relaxed);
            }
            return None;
        }
        Some(entry.result.clone())
    }

    fn cache_put(&self, q: &Question, result: &Result<Vec<ResourceRecord>, DnsError>) {
        let ttl = match result {
            Ok(rrs) if !rrs.is_empty() => {
                let min_ttl = rrs.iter().map(|rr| rr.ttl).min().unwrap_or(0);
                Duration::from_secs(min_ttl as u64).min(MAX_RECORD_TTL)
            }
            // NOERROR/empty and NXDOMAIN/REFUSED are negative answers.
            Ok(_) => NEGATIVE_TTL,
            Err(e) if !e.is_transient() => NEGATIVE_TTL,
            // Transient errors are never cached — a rescan may succeed,
            // matching the paper's exclusion of temperror cohorts.
            Err(_) => return,
        };
        if ttl.is_zero() {
            return;
        }
        self.cache
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                q.clone(),
                CacheEntry {
                    result: result.clone(),
                    expires_at: self.clock.now() + ttl,
                },
            );
    }

    /// Release the claim on `q` and hand `result` to the callers that
    /// joined its flight, if any did.
    fn retire(&self, q: &Question, result: &Result<Vec<ResourceRecord>, DnsError>) {
        let flight = lock(&self.inflight).remove(q).flatten();
        if let Some(flight) = flight {
            flight.complete(result.clone());
        }
    }

    /// Send the led questions at `led` over UDP in windows of at most
    /// `SERVE_BATCH` on one pooled socket, and store each outcome in
    /// `answers`.
    fn resolve_over_wire(
        &self,
        questions: &[Question],
        led: &[usize],
        answers: &mut [Result<Vec<ResourceRecord>, DnsError>],
    ) {
        let mut pooled = match self.pool.acquire(self.config.timeout) {
            Ok(pooled) => pooled,
            Err(e) => {
                for &i in led {
                    answers[i] = Err(e.clone());
                }
                return;
            }
        };
        for window in led.chunks(SERVE_BATCH) {
            pooled.queries.clear();
            for &i in window {
                match self.outgoing(i, &questions[i], &mut pooled.queries) {
                    Ok(o) => pooled.window.push(o),
                    Err(e) => answers[i] = Err(e),
                }
            }
            let failure = self.exchange(&mut pooled, questions).err();
            for o in pooled.window.drain(..) {
                let index = o.index;
                answers[index] = self.settle(o, &questions[index], failure.as_ref());
            }
        }
        self.pool.release(pooled, MAX_POOLED_SOCKETS);
    }

    /// Address question `q`, input position `index`, and write its query
    /// datagram onto the end of `queries`.
    fn outgoing(
        &self,
        index: usize,
        q: &Question,
        queries: &mut Vec<u8>,
    ) -> Result<Outgoing, DnsError> {
        let server = match self.servers[self.shard_of(&q.name)] {
            SocketAddr::V4(v4) => v4,
            SocketAddr::V6(v6) => {
                return Err(DnsError::Network(format!("IPv6 server {v6} unsupported")))
            }
        };
        let id = (self.next_id.fetch_add(1, Ordering::Relaxed) % 0xFFFF) as u16 + 1;
        let start = queries.len();
        wire::encode_query_into(id, q, queries).map_err(|e| DnsError::Network(e.to_string()))?;
        Ok(Outgoing {
            index,
            server,
            id,
            query: start..queries.len(),
            reply: None,
        })
    }

    /// The UDP attempts of the socket's window. Each attempt sends every
    /// question still unanswered with one `sendmmsg`, then drains replies
    /// until all are answered or the attempt's deadline passes. A reply
    /// is matched to its question by peer, id and the response bit, and
    /// only a matched one is decoded. The socket's receive time-out
    /// restarts on every datagram, so a peer trickling junk could hold a
    /// drain open for as long as it likes; the deadline is checked after
    /// every drain, which bounds an attempt by twice the time-out. A
    /// datagram the kernel refuses to send leaves its question
    /// unanswered; a receive error other than the time-out ends the
    /// exchange.
    fn exchange(&self, pooled: &mut PooledSocket, questions: &[Question]) -> Result<(), DnsError> {
        let PooledSocket {
            socket,
            slots,
            queries,
            window,
        } = pooled;
        if slots.len() < window.len() {
            slots.resize_with(window.len(), || RecvSlot::new(RECV_SLOT_BYTES));
        }
        let slots = &mut slots[..window.len()];
        // Each attempt fills the front of this array: a window holds at
        // most `SERVE_BATCH` questions.
        let mut packets: [SendPacket<'_>; SERVE_BATCH] = std::array::from_fn(|_| SendPacket {
            data: &[],
            to: SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0),
        });
        for attempt in 0..self.config.attempts.max(1) {
            let mut waiting = 0;
            for o in window.iter().filter(|o| o.reply.is_none()) {
                packets[waiting] = SendPacket {
                    data: &queries[o.query.clone()],
                    to: o.server,
                };
                waiting += 1;
            }
            if waiting == 0 {
                break;
            }
            self.counters
                .wire_queries
                .fetch_add(waiting as u64, Ordering::Relaxed);
            if attempt > 0 {
                self.counters
                    .retries
                    .fetch_add(waiting as u64, Ordering::Relaxed);
            }
            let deadline = Instant::now() + self.config.timeout;
            send_all(socket, &packets[..waiting]);
            while waiting > 0 {
                let received = match recv_from_batch(socket, slots, false) {
                    Ok(n) => n,
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        break
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => 0,
                    Err(e) => return Err(DnsError::Network(e.to_string())),
                };
                for slot in &slots[..received] {
                    // Discarded: a stray packet, a garbled one, or a late
                    // reply to an earlier call on this pooled socket.
                    let (Some(peer), &[id_hi, id_lo, ..]) = (slot.peer, slot.payload()) else {
                        continue;
                    };
                    let id = u16::from_be_bytes([id_hi, id_lo]);
                    let Some(o) = window
                        .iter_mut()
                        .find(|o| o.reply.is_none() && o.server == peer && o.id == id)
                    else {
                        continue;
                    };
                    match wire::decode_reply(slot.payload(), &questions[o.index].name) {
                        Ok(resp) if resp.header.is_response => {
                            o.reply = Some(resp);
                            waiting -= 1;
                        }
                        _ => {}
                    }
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
        Ok(())
    }

    /// The outcome of one question after its window's exchange: the
    /// reply's answers, a TCP re-fetch when the reply was truncated (RFC
    /// 7766), the exchange's socket error, or the budget-exhausted
    /// degradation to `temperror`.
    fn settle(
        &self,
        o: Outgoing,
        q: &Question,
        failure: Option<&DnsError>,
    ) -> Result<Vec<ResourceRecord>, DnsError> {
        let outcome = match (o.reply, failure) {
            (Some(resp), _) if resp.header.truncated => {
                self.counters.tcp_fallbacks.fetch_add(1, Ordering::Relaxed);
                tcp_query(SocketAddr::V4(o.server), self.config.timeout, o.id, q)
            }
            (Some(resp), _) => answers_of(resp),
            (None, Some(e)) => Err(e.clone()),
            (None, None) => Err(DnsError::Timeout),
        };
        if matches!(outcome, Err(DnsError::Timeout)) {
            self.counters.temp_errors.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }
}

impl Resolver for WireResolver {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        let mut answer = [Err(DnsError::Timeout)];
        self.query_many(&[Question::new(name.clone(), rtype)], &mut answer);
        let [answer] = answer;
        answer
    }

    fn query_many(
        &self,
        questions: &[Question],
        answers: &mut [Result<Vec<ResourceRecord>, DnsError>],
    ) {
        assert_eq!(
            questions.len(),
            answers.len(),
            "one answer slot per question"
        );
        let mut led = InlineVec::<usize, SERVE_BATCH>::new();
        let mut joined = Vec::new();
        let mut repeats = Vec::new();
        for (i, q) in questions.iter().enumerate() {
            if questions[..i].contains(q) {
                repeats.push(i);
                continue;
            }
            self.counters.queries.fetch_add(1, Ordering::Relaxed);
            if let Some(result) = self.cache_get(q, true) {
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                answers[i] = result;
                continue;
            }
            // Single flight: the first caller for a question leads it to
            // the wire; callers arriving meanwhile wait on its flight.
            let mut inflight = lock(&self.inflight);
            match inflight.get_mut(q) {
                Some(flight) => {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    let flight = flight.get_or_insert_with(|| Arc::new(Flight::new()));
                    joined.push((i, Arc::clone(flight)));
                }
                None => {
                    inflight.insert(q.clone(), None);
                    drop(inflight);
                    // A leader caches its answer before it retires its
                    // flight, so one that retired since the probe above
                    // left the answer there: now that the question is
                    // claimed, look again, and lead only on a miss.
                    match self.cache_get(q, false) {
                        Some(result) => {
                            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                            self.retire(q, &result);
                            answers[i] = result;
                        }
                        None => led.push(i),
                    }
                }
            }
        }
        let led = led.as_slice();
        if !led.is_empty() {
            self.resolve_over_wire(questions, led, answers);
        }
        // Every led flight is published before any joined one is waited
        // on. The cache is written *before* a flight is retired so a
        // caller arriving in between hits the cache instead of
        // re-querying. Once the question has left `inflight` nobody can
        // join it, so a flight no follower made is never made.
        for &i in led.iter() {
            self.cache_put(&questions[i], &answers[i]);
            self.retire(&questions[i], &answers[i]);
        }
        for (i, flight) in joined {
            answers[i] = flight.wait();
        }
        for i in repeats {
            self.query_many(&questions[i..=i], &mut answers[i..=i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::record::RecordData;
    use crate::zone::ZoneFault;
    use spf_testkit::dom;
    use std::net::Ipv4Addr;

    fn fast_config() -> WireClientConfig {
        WireClientConfig {
            timeout: Duration::from_millis(50),
            attempts: 2,
        }
    }

    fn seeded_store(n: usize) -> Arc<ZoneStore> {
        let store = Arc::new(ZoneStore::new());
        for i in 0..n {
            store.add_txt(
                &dom(&format!("d{i}.example")),
                &format!("v=spf1 ip4:10.0.0.{} -all", i % 250),
            );
        }
        store
    }

    #[test]
    fn routes_across_shards_and_resolves() {
        let store = seeded_store(40);
        let fleet = WireFleet::spawn(&store, 4, ServerConfig::default()).unwrap();
        let resolver = fleet.resolver(fast_config());
        for i in 0..40 {
            let name = dom(&format!("d{i}.example"));
            let rrs = resolver.query(&name, RecordType::Txt).unwrap();
            assert_eq!(rrs.len(), 1, "{name}");
        }
        // Every shard could answer any name, so only the exact per-shard
        // counts show that each question went to its routed shard.
        let mut routed = [0u64; 4];
        for i in 0..40 {
            routed[resolver.shard_of(&dom(&format!("d{i}.example")))] += 1;
        }
        for (i, count) in routed.iter().enumerate() {
            assert_eq!(fleet.server(i).answered(), *count, "shard {i}");
        }
        assert_eq!(fleet.answered(), 40);
    }

    #[test]
    fn zone_edits_are_served_once_the_client_cache_is_cleared() {
        let store = seeded_store(8);
        let fleet = WireFleet::spawn(&store, 2, ServerConfig::default()).unwrap();
        let resolver = fleet.resolver(fast_config());
        let names: Vec<DomainName> = (0..8).map(|i| dom(&format!("d{i}.example"))).collect();
        let served = |name: &DomainName| -> Vec<String> {
            let rrs = resolver.query(name, RecordType::Txt).unwrap();
            rrs.iter()
                .filter_map(|rr| match &rr.data {
                    RecordData::Txt(t) => Some(t.joined()),
                    _ => None,
                })
                .collect()
        };
        let before: Vec<Vec<String>> = names.iter().map(|n| store.txt_strings(n)).collect();
        for (name, old) in names.iter().zip(&before) {
            assert_eq!(&served(name), old);
        }
        for (i, name) in names.iter().enumerate() {
            store.replace_txt(name, &format!("v=spf1 ip4:192.0.2.{i} -all"));
        }
        // The client still holds every answer for its TTL…
        for (name, old) in names.iter().zip(&before) {
            assert_eq!(&served(name), old, "{name} asked the wire");
        }
        assert_eq!(fleet.answered(), 8);
        // …and after the clear every shard serves the edited zone.
        resolver.clear_cache();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(served(name), [format!("v=spf1 ip4:192.0.2.{i} -all")]);
        }
        assert_eq!(fleet.answered(), 16);
        for i in 0..2 {
            assert!(fleet.server(i).answered() > 0, "shard {i} served nothing");
        }
    }

    #[test]
    fn nxdomain_and_empty_answers_flow_through() {
        let store = Arc::new(ZoneStore::new());
        store.add_a(&dom("a-only.example"), Ipv4Addr::new(192, 0, 2, 1));
        let fleet = WireFleet::spawn(&store, 2, ServerConfig::default()).unwrap();
        let resolver = fleet.resolver(fast_config());
        assert_eq!(
            resolver.query(&dom("missing.example"), RecordType::Txt),
            Err(DnsError::NxDomain)
        );
        assert_eq!(
            resolver.query(&dom("a-only.example"), RecordType::Txt),
            Ok(vec![])
        );
    }

    #[test]
    fn cache_serves_repeats_without_new_datagrams() {
        let store = seeded_store(1);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let resolver = fleet.resolver(fast_config());
        let name = dom("d0.example");
        for _ in 0..5 {
            resolver.query(&name, RecordType::Txt).unwrap();
        }
        let snap = resolver.snapshot();
        assert_eq!(snap.queries, 5);
        assert_eq!(snap.cache_hits, 4);
        assert_eq!(snap.wire_queries, 1);
        assert_eq!(fleet.answered(), 1);
        assert!(snap.cache_hit_rate() > 0.7);
    }

    #[test]
    fn negative_answers_are_cached_with_ttl() {
        let store = Arc::new(ZoneStore::new());
        store.add_a(&dom("exists.example"), Ipv4Addr::new(192, 0, 2, 1));
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let clock = Arc::new(VirtualClock::new());
        let resolver = WireResolver::with_clock(
            fleet.addrs(),
            fast_config(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        // NXDOMAIN cached…
        for _ in 0..3 {
            assert_eq!(
                resolver.query(&dom("gone.example"), RecordType::Txt),
                Err(DnsError::NxDomain)
            );
        }
        // …and NOERROR/empty cached too.
        for _ in 0..3 {
            assert_eq!(
                resolver.query(&dom("exists.example"), RecordType::Txt),
                Ok(vec![])
            );
        }
        let snap = resolver.snapshot();
        assert_eq!(snap.wire_queries, 2);
        assert_eq!(snap.cache_hits, 4);
        // Past the negative TTL the next probe goes back to the wire.
        clock.advance(NEGATIVE_TTL + Duration::from_secs(1));
        assert_eq!(
            resolver.query(&dom("gone.example"), RecordType::Txt),
            Err(DnsError::NxDomain)
        );
        let snap = resolver.snapshot();
        assert_eq!(snap.wire_queries, 3);
        assert_eq!(snap.cache_expired, 1);
    }

    #[test]
    fn positive_ttl_honors_record_ttl() {
        let store = Arc::new(ZoneStore::new());
        let mut rr = ResourceRecord::new(
            dom("short.example"),
            RecordData::Txt(crate::record::TxtData::from_text("v=spf1 -all")),
        );
        rr.ttl = 10;
        store.add_record(rr);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let clock = Arc::new(VirtualClock::new());
        let resolver = WireResolver::with_clock(
            fleet.addrs(),
            fast_config(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        resolver
            .query(&dom("short.example"), RecordType::Txt)
            .unwrap();
        resolver
            .query(&dom("short.example"), RecordType::Txt)
            .unwrap();
        assert_eq!(resolver.snapshot().wire_queries, 1);
        clock.advance(Duration::from_secs(11));
        resolver
            .query(&dom("short.example"), RecordType::Txt)
            .unwrap();
        assert_eq!(resolver.snapshot().wire_queries, 2);
    }

    #[test]
    fn timeout_budget_degrades_to_temperror_and_is_not_cached() {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("dead.example"), "v=spf1 -all");
        store.set_fault(&dom("dead.example"), ZoneFault::Timeout);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let resolver = fleet.resolver(WireClientConfig {
            timeout: Duration::from_millis(30),
            attempts: 3,
        });
        assert_eq!(
            resolver.query(&dom("dead.example"), RecordType::Txt),
            Err(DnsError::Timeout)
        );
        let snap = resolver.snapshot();
        assert_eq!(snap.wire_queries, 3, "all attempts spent");
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.temp_errors, 1);
        // Transient outcomes are never cached: the next query pays again.
        assert_eq!(
            resolver.query(&dom("dead.example"), RecordType::Txt),
            Err(DnsError::Timeout)
        );
        assert_eq!(resolver.snapshot().wire_queries, 6);
        assert_eq!(resolver.snapshot().cache_hits, 0);
    }

    #[test]
    fn garbage_flood_cannot_hold_a_query_past_its_budget() {
        // A peer that answers every query by trickling 5-byte runts from
        // the server's own address, faster than the receive time-out, for
        // several times the query's whole budget.
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        let addr = server.local_addr().unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flooder = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buf = [0u8; 512];
                let mut client = None;
                let flood_started = Instant::now();
                while !stop.load(Ordering::Relaxed)
                    && flood_started.elapsed() < Duration::from_secs(2)
                {
                    // The read time-out paces the flood at one runt per 5 ms.
                    if let Ok((_, peer)) = server.recv_from(&mut buf) {
                        client = Some(peer);
                    }
                    if let Some(peer) = client {
                        let _ = server.send_to(&[0xde, 0xad, 0xbe, 0xef, 0x00], peer);
                    }
                }
            })
        };
        let config = WireClientConfig::crawl();
        let resolver = WireResolver::new(vec![addr], config);
        let started = Instant::now();
        let result = resolver.query(&dom("flooded.example"), RecordType::Txt);
        let held = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        flooder.join().unwrap();
        assert_eq!(result, Err(DnsError::Timeout));
        assert!(
            held <= config.timeout * 2 * config.attempts as u32,
            "the flood held the query for {held:?}"
        );
        let snap = resolver.snapshot();
        assert_eq!(snap.wire_queries, config.attempts as u64);
        assert_eq!(snap.temp_errors, 1);
    }

    #[test]
    fn servfail_and_refused_preserved_over_wire() {
        let store = Arc::new(ZoneStore::new());
        store.set_fault(&dom("sf.example"), ZoneFault::ServFail);
        store.set_fault(&dom("ref.example"), ZoneFault::Refused);
        let fleet = WireFleet::spawn(&store, 2, ServerConfig::default()).unwrap();
        let resolver = fleet.resolver(fast_config());
        assert_eq!(
            resolver.query(&dom("sf.example"), RecordType::Txt),
            Err(DnsError::ServFail)
        );
        assert_eq!(
            resolver.query(&dom("ref.example"), RecordType::Txt),
            Err(DnsError::Refused)
        );
    }

    #[test]
    fn concurrent_same_name_queries_share_one_flight() {
        let store = seeded_store(1);
        // A slow server is not needed: even against a fast shard, 16
        // threads racing one cold name must produce far fewer datagrams
        // than queries. Guarantee at least one coalesce by pre-locking
        // nothing and checking queries == hits + coalesced + leaders.
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let resolver = Arc::new(fleet.resolver(fast_config()));
        let name = dom("d0.example");
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let resolver = Arc::clone(&resolver);
                let name = name.clone();
                scope.spawn(move || {
                    let rrs = resolver.query(&name, RecordType::Txt).unwrap();
                    assert_eq!(rrs.len(), 1);
                });
            }
        });
        let snap = resolver.snapshot();
        assert_eq!(snap.queries, 16);
        // Every query was a cache hit, a coalesced follower, or a leader
        // who actually went to the wire.
        assert_eq!(
            snap.cache_hits + snap.coalesced + snap.wire_queries,
            16,
            "{snap:?}"
        );
        assert!(
            snap.wire_queries < 16,
            "single-flight must collapse some of the burst: {snap:?}"
        );
    }

    #[test]
    fn racing_callers_send_one_datagram_per_cacheable_name() {
        // Threads walk the same names in the same order, so for every
        // name some caller misses the cache just before the leader
        // caches the answer and retires its flight. That caller must
        // find the answer under the in-flight lock, not lead the name to
        // the wire a second time.
        const NAMES: usize = 1000;
        const THREADS: usize = 8;
        let store = seeded_store(NAMES);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let config = WireClientConfig {
            timeout: Duration::from_secs(2),
            attempts: 2,
        };
        let resolver = fleet.resolver(config);
        let names: Vec<DomainName> = (0..NAMES).map(|i| dom(&format!("d{i}.example"))).collect();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    start.wait();
                    for name in &names {
                        assert_eq!(resolver.query(name, RecordType::Txt).unwrap().len(), 1);
                    }
                });
            }
        });
        let snap = resolver.snapshot();
        snap.check_conservation().unwrap();
        assert_eq!(snap.queries, (NAMES * THREADS) as u64, "{snap:?}");
        assert_eq!(
            snap.wire_queries - snap.retries,
            NAMES as u64,
            "one first datagram per name: {snap:?}"
        );
    }

    #[test]
    fn truncated_responses_fall_back_to_tcp() {
        let store = Arc::new(ZoneStore::new());
        let long = "v=spf1 ".to_string() + &"ip4:198.51.100.0/24 ".repeat(40) + "-all";
        store.add_txt(&dom("huge.example"), &long);
        let fleet = WireFleet::spawn(&store, 2, ServerConfig { max_payload: 512 }).unwrap();
        let resolver = fleet.resolver(fast_config());
        let answers = resolver
            .query(&dom("huge.example"), RecordType::Txt)
            .unwrap();
        match &answers[0].data {
            RecordData::Txt(t) => assert_eq!(t.joined(), long),
            other => panic!("unexpected {other:?}"),
        }
        let snap = resolver.snapshot();
        assert_eq!(snap.tcp_fallbacks, 1);
        assert_eq!(fleet.tcp_answered(), 1);
        // The fallback answer is cached like any positive answer.
        resolver
            .query(&dom("huge.example"), RecordType::Txt)
            .unwrap();
        assert_eq!(resolver.snapshot().cache_hits, 1);
        assert_eq!(fleet.tcp_answered(), 1);
    }

    #[test]
    fn clear_cache_resets_cache_epoch_counters_only() {
        let store = seeded_store(1);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let resolver = fleet.resolver(fast_config());
        let name = dom("d0.example");
        for _ in 0..3 {
            resolver.query(&name, RecordType::Txt).unwrap();
        }
        let before = resolver.snapshot();
        assert_eq!((before.queries, before.cache_hits), (3, 2));
        assert_eq!(before.wire_queries, 1);
        resolver.clear_cache();
        let cleared = resolver.snapshot();
        // Cache-epoch counters reset so post-clear rates describe the new
        // round…
        assert_eq!(cleared.queries, 0);
        assert_eq!(cleared.cache_hits, 0);
        assert_eq!(cleared.cache_expired, 0);
        assert_eq!(cleared.coalesced, 0);
        assert_eq!(cleared.cache_hit_rate(), 0.0);
        // …while transport-lifetime counters survive the clear.
        assert_eq!(cleared.wire_queries, 1);
        assert_eq!(resolver.cache_len(), 0);
        // A fresh round computes its hit rate from the new epoch alone.
        resolver.query(&name, RecordType::Txt).unwrap();
        resolver.query(&name, RecordType::Txt).unwrap();
        let after = resolver.snapshot();
        assert_eq!((after.queries, after.cache_hits), (2, 1));
        assert_eq!(after.wire_queries, 2);
        assert_eq!(after.cache_hit_rate(), 0.5);
    }

    #[test]
    fn conservation_names_each_broken_law() {
        // Five questions: two cache hits, one coalesced join and two led
        // to the wire, one of which timed out after its retry.
        let sound = WireSnapshot {
            queries: 5,
            cache_hits: 2,
            coalesced: 1,
            wire_queries: 3,
            retries: 1,
            temp_errors: 1,
            ..WireSnapshot::default()
        };
        assert_eq!(sound.check_conservation(), Ok(()));
        let unaccounted = WireSnapshot {
            queries: 6,
            ..sound
        };
        let law = unaccounted.check_conservation().unwrap_err();
        assert!(
            law.starts_with("queries != cache_hits + coalesced + (wire_queries - retries)"),
            "{law}"
        );
        let more_retries_than_datagrams = WireSnapshot {
            retries: 4,
            temp_errors: 4,
            ..sound
        };
        let law = more_retries_than_datagrams
            .check_conservation()
            .unwrap_err();
        assert!(law.starts_with("queries != "), "{law}");
        let retried_without_timing_out = WireSnapshot {
            temp_errors: 0,
            ..sound
        };
        let law = retried_without_timing_out.check_conservation().unwrap_err();
        assert!(law.starts_with("retries != temp_errors"), "{law}");
    }
}
