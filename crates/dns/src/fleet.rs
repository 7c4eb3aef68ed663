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
//! * [`WireFleet`] — the authoritative side. The zone is partitioned
//!   across N [`UdpNameServer`] shards by
//!   [`DomainName::precomputed_hash`], the same routing function the
//!   client uses, so every name has exactly one authoritative home and a
//!   correctly routed query never needs referral chasing.
//! * [`WireResolver`] — the client side: a lazily grown socket pool per
//!   shard, single-flight query coalescing (concurrent workers asking for
//!   the same `include:` target share one in-flight datagram), TTL-aware
//!   positive *and* negative caching, RFC 7766 TCP fallback on
//!   truncation, and a retry/timeout budget that degrades to
//!   [`DnsError::Timeout`] — the same `temperror` surface the in-memory
//!   fault path presents, so the walker cannot tell the transports apart.
//! * [`ShardBehavior`] — optional per-shard fault/latency injection, so
//!   the netsim presets can model a degraded slice of the fleet (one slow
//!   resolver out of 150) rather than only uniform failure rates.
//!
//! Under a zero-fault profile the wire path is *observationally
//! identical* to the in-memory path: the façade's `wire_stress` suite
//! serializes both report streams at scale 1:500 and compares them byte
//! for byte across worker × shard matrices.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use spf_types::{DomainName, StatItem, Stats};

use crate::clock::{Clock, SystemClock};
use crate::record::{Question, RecordType, ResourceRecord};
use crate::resolver::{DnsError, FaultProfile, Resolver};
use crate::udp::{tcp_query, ServerConfig, UdpNameServer};
use crate::wire::{self, Message, Rcode};
use crate::zone::ZoneStore;

/// Client-side knobs of the wire path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireClientConfig {
    /// Per-attempt receive timeout.
    pub timeout: Duration,
    /// UDP attempts before the query degrades to [`DnsError::Timeout`]
    /// (`temperror`), mirroring the in-memory fault path.
    pub attempts: usize,
    /// Cap applied to positive TTLs taken from answer records.
    pub max_record_ttl: Duration,
    /// How long NXDOMAIN / empty / REFUSED answers are cached (RFC
    /// 2308-style negative caching). Transient errors are never cached.
    pub negative_ttl: Duration,
    /// Idle sockets kept per server shard; bursts beyond the cap create
    /// throwaway sockets instead of blocking.
    pub max_pooled_sockets: usize,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        WireClientConfig {
            timeout: Duration::from_millis(120),
            attempts: 3,
            max_record_ttl: Duration::from_secs(3600),
            negative_ttl: Duration::from_secs(300),
            max_pooled_sockets: 64,
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
            ..WireClientConfig::default()
        }
    }
}

/// Fault/latency injection for one server shard, applied on the client's
/// send path (the shard's slice of the Internet is slow or lossy; the
/// zone data itself is untouched). Rolls follow the same accumulation
/// order as [`crate::resolver::FaultInjectingResolver`], so a
/// single-shard fleet with a given profile reproduces that layer's error
/// mix. Injected timeouts are returned directly — they model the
/// *resolver endpoint* giving up, not one lost datagram, so they do not
/// consume the retry budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardBehavior {
    /// Fault probabilities for queries routed to this shard.
    pub fault: FaultProfile,
    /// Extra latency added to every query routed to this shard (slept on
    /// the resolver's [`Clock`], so virtual-clock tests pay nothing).
    pub latency: Duration,
}

impl ShardBehavior {
    /// No injected faults, no added latency — the determinism profile.
    pub fn none() -> Self {
        ShardBehavior {
            fault: FaultProfile::none(),
            latency: Duration::ZERO,
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
    injected_faults: AtomicU64,
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
    /// Faults injected by [`ShardBehavior`] profiles.
    pub injected_faults: u64,
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
            StatItem::count("injected", s.injected_faults),
        ]
    }
}

/// A sharded authoritative name-server fleet over one logical zone.
///
/// Dropping the fleet shuts the servers down; keep it alive for the whole
/// crawl.
pub struct WireFleet {
    servers: Vec<UdpNameServer>,
    stores: Vec<Arc<ZoneStore>>,
}

impl WireFleet {
    /// Partition `store` into `shards` authoritative shards (see
    /// [`ZoneStore::partition`]) and spawn one [`UdpNameServer`] per
    /// shard, every one with the same `config`.
    pub fn spawn(store: &ZoneStore, shards: usize, config: ServerConfig) -> std::io::Result<Self> {
        let stores: Vec<Arc<ZoneStore>> =
            store.partition(shards).into_iter().map(Arc::new).collect();
        let servers = stores
            .iter()
            .map(|s| UdpNameServer::spawn(Arc::clone(s), config.clone()))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(WireFleet { servers, stores })
    }

    /// Number of server shards.
    pub fn shard_count(&self) -> usize {
        self.servers.len()
    }

    /// The shard addresses, in routing order (index `i` serves names with
    /// `precomputed_hash() % shard_count == i`).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.addr()).collect()
    }

    /// Shard `i`'s server handle.
    pub fn server(&self, i: usize) -> &UdpNameServer {
        &self.servers[i]
    }

    /// Shard `i`'s authoritative store (a deep copy of the source zone's
    /// slice — mutate it to model per-shard zone drift).
    pub fn store(&self, i: usize) -> &Arc<ZoneStore> {
        &self.stores[i]
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

/// In-flight state of one single-flight wire query. Followers block on
/// the condvar until the leader publishes the shared result.
struct Flight {
    state: std::sync::Mutex<Option<Result<Vec<ResourceRecord>, DnsError>>>,
    ready: std::sync::Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: std::sync::Mutex::new(None),
            ready: std::sync::Condvar::new(),
        }
    }

    /// Park until the result is published, then return a clone of it.
    fn wait(&self) -> Result<Vec<ResourceRecord>, DnsError> {
        let mut st = self.state.lock().expect("flight lock");
        while st.is_none() {
            st = self.ready.wait(st).expect("flight wait");
        }
        st.as_ref().expect("checked above").clone()
    }

    fn complete(&self, result: Result<Vec<ResourceRecord>, DnsError>) {
        *self.state.lock().expect("flight lock") = Some(result);
        self.ready.notify_all();
    }
}

/// One cached answer with its expiry instant (on the resolver's clock).
struct CacheEntry {
    result: Result<Vec<ResourceRecord>, DnsError>,
    expires_at: Duration,
}

/// Lazily grown pool of client sockets for one server shard.
struct SocketPool {
    idle: Mutex<Vec<UdpSocket>>,
}

impl SocketPool {
    fn new() -> Self {
        SocketPool {
            idle: Mutex::new(Vec::new()),
        }
    }

    fn acquire(&self, timeout: Duration) -> Result<UdpSocket, DnsError> {
        if let Some(s) = self.idle.lock().pop() {
            return Ok(s);
        }
        let s = UdpSocket::bind(("127.0.0.1", 0))
            .map_err(|e| DnsError::Network(format!("bind: {e}")))?;
        s.set_read_timeout(Some(timeout))
            .map_err(|e| DnsError::Network(format!("timeout: {e}")))?;
        Ok(s)
    }

    fn release(&self, socket: UdpSocket, cap: usize) {
        let mut idle = self.idle.lock();
        if idle.len() < cap {
            idle.push(socket);
        }
    }
}

/// The wire-path stub resolver — the repo's one DNS-over-socket client:
/// hash-routed sharding, pooled sockets, single-flight coalescing, TTL
/// caching and TCP fallback behind the plain [`Resolver`] interface, so
/// the walker and crawler run unchanged. One wire query occupies one
/// pooled socket for its whole retry budget.
pub struct WireResolver {
    servers: Vec<SocketAddr>,
    config: WireClientConfig,
    clock: Arc<dyn Clock>,
    counters: WireCounters,
    cache: RwLock<HashMap<Question, CacheEntry>>,
    inflight: std::sync::Mutex<HashMap<Question, Arc<Flight>>>,
    behaviors: Option<Vec<(ShardBehavior, Mutex<StdRng>)>>,
    pools: Vec<SocketPool>,
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

    /// Like [`WireResolver::new`] with an explicit clock (cache TTLs and
    /// injected latency run on it).
    pub fn with_clock(
        servers: Vec<SocketAddr>,
        config: WireClientConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        assert!(
            !servers.is_empty(),
            "wire resolver needs at least one server"
        );
        let pools = servers.iter().map(|_| SocketPool::new()).collect();
        WireResolver {
            servers,
            config,
            clock,
            counters: WireCounters::default(),
            cache: RwLock::new(HashMap::new()),
            inflight: std::sync::Mutex::new(HashMap::new()),
            behaviors: None,
            pools,
            next_id: AtomicU64::new(1),
        }
    }

    /// Attach per-shard fault/latency behaviors (one entry per server, in
    /// routing order). Each shard rolls its own deterministic RNG stream
    /// seeded `seed ^ shard_index`.
    ///
    /// # Panics
    /// Panics when `behaviors.len()` differs from the server count.
    pub fn with_behaviors(mut self, behaviors: Vec<ShardBehavior>, seed: u64) -> Self {
        assert_eq!(
            behaviors.len(),
            self.servers.len(),
            "one behavior per server shard"
        );
        self.behaviors = Some(
            behaviors
                .into_iter()
                .enumerate()
                .map(|(i, b)| (b, Mutex::new(StdRng::seed_from_u64(seed ^ i as u64))))
                .collect(),
        );
        self
    }

    /// Number of server shards this resolver routes across.
    pub fn shard_count(&self) -> usize {
        self.servers.len()
    }

    /// The shard index `name` routes to.
    pub fn shard_of(&self, name: &DomainName) -> usize {
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
            injected_faults: c.injected_faults.load(Ordering::Relaxed),
        }
    }

    /// Number of live cache entries (expired entries still resident are
    /// not counted).
    pub fn cache_len(&self) -> usize {
        let now = self.clock.now();
        self.cache
            .read()
            .values()
            .filter(|e| e.expires_at > now)
            .count()
    }

    /// Drop every cached answer and reset the cache-epoch counters
    /// (`queries`, `cache_hits`, `cache_expired`, `coalesced`), so rates
    /// like [`WireSnapshot::cache_hit_rate`] describe the round after the
    /// clear instead of mixing epochs. Transport-lifetime counters
    /// (`wire_queries`, `retries`, `tcp_fallbacks`, `temp_errors`,
    /// `injected_faults`) keep accumulating — used between scan rounds.
    pub fn clear_cache(&self) {
        self.cache.write().clear();
        let c = &self.counters;
        c.queries.store(0, Ordering::Relaxed);
        c.cache_hits.store(0, Ordering::Relaxed);
        c.cache_expired.store(0, Ordering::Relaxed);
        c.coalesced.store(0, Ordering::Relaxed);
    }

    fn cache_get(&self, q: &Question) -> Option<Result<Vec<ResourceRecord>, DnsError>> {
        let cache = self.cache.read();
        let entry = cache.get(q)?;
        if entry.expires_at <= self.clock.now() {
            self.counters.cache_expired.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(entry.result.clone())
    }

    fn cache_put(&self, q: &Question, result: &Result<Vec<ResourceRecord>, DnsError>) {
        let ttl = match result {
            Ok(rrs) if !rrs.is_empty() => {
                let min_ttl = rrs.iter().map(|rr| rr.ttl).min().unwrap_or(0);
                Duration::from_secs(min_ttl as u64).min(self.config.max_record_ttl)
            }
            // NOERROR/empty and NXDOMAIN/REFUSED are negative answers.
            Ok(_) => self.config.negative_ttl,
            Err(e) if !e.is_transient() => self.config.negative_ttl,
            // Transient errors are never cached — a rescan may succeed,
            // matching the paper's exclusion of temperror cohorts.
            Err(_) => return,
        };
        if ttl.is_zero() {
            return;
        }
        self.cache.write().insert(
            q.clone(),
            CacheEntry {
                result: result.clone(),
                expires_at: self.clock.now() + ttl,
            },
        );
    }

    /// Roll the routed shard's fault profile; `Some` short-circuits the
    /// wire entirely (the injected outcome is what the endpoint "said").
    fn injected_fault(&self, shard: usize) -> Option<Result<Vec<ResourceRecord>, DnsError>> {
        let (behavior, rng) = match &self.behaviors {
            Some(b) => &b[shard],
            None => return None,
        };
        if !behavior.latency.is_zero() {
            self.clock.sleep(behavior.latency);
        }
        let p = behavior.fault;
        if p == FaultProfile::none() {
            return None;
        }
        let roll: f64 = rng.lock().random();
        let mut acc = p.timeout;
        if roll < acc {
            return Some(Err(DnsError::Timeout));
        }
        acc += p.nxdomain;
        if roll < acc {
            return Some(Err(DnsError::NxDomain));
        }
        acc += p.empty;
        if roll < acc {
            return Some(Ok(Vec::new()));
        }
        acc += p.servfail;
        if roll < acc {
            return Some(Err(DnsError::ServFail));
        }
        None
    }

    /// One UDP attempt on `socket`: send, then drain until the matching
    /// response, the attempt's deadline, or a socket error.
    fn attempt(
        &self,
        socket: &UdpSocket,
        server: SocketAddr,
        id: u16,
        name: &DomainName,
        rtype: RecordType,
    ) -> Result<Message, DnsError> {
        let msg = Message::query(id, Question::new(name.clone(), rtype));
        let bytes = wire::encode(&msg).map_err(|e| DnsError::Network(e.to_string()))?;
        self.counters.wire_queries.fetch_add(1, Ordering::Relaxed);
        // The socket's receive time-out restarts on every datagram, so a
        // peer trickling junk could hold the attempt open for as long as
        // it likes; the deadline is checked whenever a datagram is
        // discarded, which bounds an attempt by twice the time-out.
        let deadline = Instant::now() + self.config.timeout;
        socket
            .send_to(&bytes, server)
            .map_err(|e| DnsError::Network(e.to_string()))?;
        let mut buf = [0u8; 4096];
        loop {
            let (len, peer) = socket.recv_from(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                {
                    DnsError::Timeout
                } else {
                    DnsError::Network(e.to_string())
                }
            })?;
            if peer == server {
                if let Ok(resp) = wire::decode(&buf[..len]) {
                    if resp.header.id == id && resp.header.is_response {
                        return Ok(resp);
                    }
                }
            }
            // Discarded: a stray packet, a garbled one, or a late
            // response to an earlier query on this pooled socket.
            if Instant::now() >= deadline {
                return Err(DnsError::Timeout);
            }
        }
    }

    /// The leader path: retries over UDP, TCP fallback on truncation, and
    /// the budget-exhausted degradation to `temperror`.
    fn resolve_over_wire(
        &self,
        name: &DomainName,
        rtype: RecordType,
    ) -> Result<Vec<ResourceRecord>, DnsError> {
        let shard = self.shard_of(name);
        // An injected outcome is counted the way a real wire outcome is:
        // `injected_faults`, plus `temp_errors` for a timeout.
        if let Some(outcome) = self.injected_fault(shard) {
            self.counters
                .injected_faults
                .fetch_add(1, Ordering::Relaxed);
            if matches!(outcome, Err(DnsError::Timeout)) {
                self.counters.temp_errors.fetch_add(1, Ordering::Relaxed);
            }
            return outcome;
        }
        let server = self.servers[shard];
        let socket = self.pools[shard].acquire(self.config.timeout)?;
        let id = (self.next_id.fetch_add(1, Ordering::Relaxed) % 0xFFFF) as u16 + 1;
        let mut outcome = Err(DnsError::Timeout);
        for attempt in 0..self.config.attempts.max(1) {
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
            }
            match self.attempt(&socket, server, id, name, rtype) {
                Ok(resp) => {
                    if resp.header.truncated {
                        // RFC 7766: retry the query over TCP.
                        self.counters.tcp_fallbacks.fetch_add(1, Ordering::Relaxed);
                        outcome = tcp_query(server, self.config.timeout, id, name, rtype);
                    } else {
                        outcome = match resp.header.rcode {
                            Rcode::NoError => Ok(resp.answers),
                            Rcode::NxDomain => Err(DnsError::NxDomain),
                            Rcode::ServFail => Err(DnsError::ServFail),
                            Rcode::Refused => Err(DnsError::Refused),
                            other => Err(DnsError::Network(format!("unexpected rcode {other:?}"))),
                        };
                    }
                    break;
                }
                Err(DnsError::Timeout) => {
                    outcome = Err(DnsError::Timeout);
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        self.pools[shard].release(socket, self.config.max_pooled_sockets);
        if matches!(outcome, Err(DnsError::Timeout)) {
            self.counters.temp_errors.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }
}

impl Resolver for WireResolver {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        let q = Question::new(name.clone(), rtype);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(result) = self.cache_get(&q) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return result;
        }
        // Single flight: the first caller for a question leads and goes
        // to the wire; callers arriving meanwhile wait on its flight.
        let joined = {
            let mut inflight = self.inflight.lock().expect("inflight lock");
            match inflight.get(&q) {
                Some(flight) => {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(flight))
                }
                None => {
                    inflight.insert(q.clone(), Arc::new(Flight::new()));
                    None
                }
            }
        };
        if let Some(flight) = joined {
            return flight.wait();
        }
        let result = self.resolve_over_wire(name, rtype);
        // The cache is written *before* the flight is retired so a caller
        // arriving in between hits the cache instead of re-querying.
        self.cache_put(&q, &result);
        let flight = self.inflight.lock().expect("inflight lock").remove(&q);
        if let Some(flight) = flight {
            flight.complete(result.clone());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::record::RecordData;
    use crate::zone::ZoneFault;
    use std::net::Ipv4Addr;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn fast_config() -> WireClientConfig {
        WireClientConfig {
            timeout: Duration::from_millis(50),
            attempts: 2,
            ..WireClientConfig::default()
        }
    }

    fn seeded_store(n: usize) -> ZoneStore {
        let store = ZoneStore::new();
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
        // Every shard with at least one routed name answered on UDP.
        let mut routed = [0u64; 4];
        for i in 0..40 {
            routed[resolver.shard_of(&dom(&format!("d{i}.example")))] += 1;
        }
        for (i, count) in routed.iter().enumerate() {
            if *count > 0 {
                assert!(fleet.server(i).answered() > 0, "shard {i} never answered");
            }
        }
        assert_eq!(fleet.answered(), 40);
    }

    #[test]
    fn nxdomain_and_empty_answers_flow_through() {
        let store = ZoneStore::new();
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
        let store = ZoneStore::new();
        store.add_a(&dom("exists.example"), Ipv4Addr::new(192, 0, 2, 1));
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let clock = Arc::new(VirtualClock::new());
        let resolver = WireResolver::with_clock(
            fleet.addrs(),
            WireClientConfig {
                negative_ttl: Duration::from_secs(30),
                ..fast_config()
            },
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
        clock.advance(Duration::from_secs(31));
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
        let store = ZoneStore::new();
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
        let store = ZoneStore::new();
        store.add_txt(&dom("dead.example"), "v=spf1 -all");
        store.set_fault(&dom("dead.example"), ZoneFault::Timeout);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let resolver = fleet.resolver(WireClientConfig {
            timeout: Duration::from_millis(30),
            attempts: 3,
            ..WireClientConfig::default()
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
        let store = ZoneStore::new();
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
    fn truncated_responses_fall_back_to_tcp() {
        let store = ZoneStore::new();
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
    fn per_shard_behavior_injects_faults_only_on_its_shard() {
        let store = seeded_store(40);
        let fleet = WireFleet::spawn(&store, 2, ServerConfig::default()).unwrap();
        // Shard 0 always times out; shard 1 is healthy.
        let behaviors = vec![
            ShardBehavior {
                fault: FaultProfile {
                    timeout: 1.0,
                    nxdomain: 0.0,
                    empty: 0.0,
                    servfail: 0.0,
                },
                latency: Duration::ZERO,
            },
            ShardBehavior::none(),
        ];
        let resolver = fleet.resolver(fast_config()).with_behaviors(behaviors, 7);
        let mut dead = 0;
        let mut alive = 0;
        for i in 0..40 {
            let name = dom(&format!("d{i}.example"));
            let result = resolver.query(&name, RecordType::Txt);
            match resolver.shard_of(&name) {
                0 => {
                    assert_eq!(result, Err(DnsError::Timeout));
                    dead += 1;
                }
                _ => {
                    assert!(result.is_ok());
                    alive += 1;
                }
            }
        }
        assert!(dead > 0 && alive > 0, "hash must spread both shards");
        let snap = resolver.snapshot();
        assert_eq!(snap.injected_faults, dead);
        assert_eq!(snap.temp_errors, dead);
        // Injected faults never touched the wire.
        assert_eq!(snap.wire_queries, alive);
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
    fn injected_latency_runs_on_the_clock() {
        let store = seeded_store(8);
        let fleet = WireFleet::spawn(&store, 1, ServerConfig::default()).unwrap();
        let clock = Arc::new(VirtualClock::new());
        let resolver = WireResolver::with_clock(
            fleet.addrs(),
            fast_config(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .with_behaviors(
            vec![ShardBehavior {
                fault: FaultProfile::none(),
                latency: Duration::from_millis(40),
            }],
            1,
        );
        for i in 0..8 {
            resolver
                .query(&dom(&format!("d{i}.example")), RecordType::Txt)
                .unwrap();
        }
        // 8 queries × 40ms of virtual latency, paid instantly.
        assert_eq!(clock.now(), Duration::from_millis(320));
    }
}
