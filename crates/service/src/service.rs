//! The resident verdict daemon: sockets in, [`Evaluation`]s out.
//!
//! Architecture — the listener answers what is resident, the queue
//! carries what can block:
//!
//! * **Sockets** — one UDP socket and one TCP listener on the same
//!   ephemeral loopback port, drained by background threads with short
//!   read timeouts and a shutdown flag. The UDP listener is the `dns`
//!   crate's batched datagram loop ([`spf_dns::serve_datagrams`], shared
//!   with [`UdpNameServer`](spf_dns::UdpNameServer)): one `recvmmsg` per
//!   batch of queries, one `sendmmsg` for every reply the listener wrote.
//!   The TCP listener is its accept loop, [`spf_dns::serve_connections`].
//! * **Inline answers** — `dispatch` (shared by the UDP listener and
//!   the TCP connection threads) decodes a frame, probes the compiled
//!   store once, and answers on the spot a plain query whose domain's
//!   tables are resident and live and whose address falls in a compiled
//!   range: a binary search and a body written straight into the reply
//!   buffer, nothing that can block. Which path a query takes depends
//!   only on what the service sees in it — stack flag, store residency,
//!   range class — never on a setting.
//! * **Queue** — everything that can touch the resolver (a first-time
//!   or TTL-expired compile, a residual address, a stacked query, every
//!   query of a service without a compiled backend) is `try_send`-ed as
//!   a job into one bounded queue (a `Mutex<VecDeque>` and a `Condvar`),
//!   carrying the probe's result so the
//!   store is probed once per query; a full queue yields an immediate
//!   typed `overloaded` response, never a silently dropped datagram.
//! * **Workers** — a fixed pool drains the queue, runs `check_host`
//!   (through the TTL/LRU [`ServiceVerdictCache`] unless the evaluator is
//!   [`Evaluator::Interpreted`]), and
//!   replies on the transport the query arrived on. On both paths
//!   counters increment before the reply leaves, so a client that has
//!   seen its response can never observe a stale counter.
//! * **Shutdown** — the flag stops the listeners; closing the queue
//!   once they are joined lets workers drain every job already admitted
//!   before exiting, so accepted queries are always answered. Queries arriving
//!   *during* the drain get a typed `shutting-down` response.
//!
//! Answering inline and batching the socket calls are one change, not
//! two. Measured on the benchmark's `serve-hot` (closed loop, window
//! 32, one pinned core): inline answers with one reply system call per
//! datagram are no faster than the queue they replace (0.92× the
//! parent with this loop built at a batch of 1; +8 % in the issue's
//! prototype) — every reply wakes the generator, which sends one query
//! and sleeps again, a listener ↔ generator ping-pong of 1.4 context
//! switches a query where the queue hop had let 32 queries flow as one
//! batch at 0.18. With the batched loop the window arrives and leaves
//! together again: 1.26× the parent, at 0.6 switches a query.
//!
//! Correctness bar: a served verdict is byte-identical to what bare
//! [`check_host`] returns for the same `(ip, domain, sender)` against
//! the same zones — the listener and the workers read the same compiled
//! tables, and workers share nothing mutable but the verdict memo,
//! whose transparency DESIGN.md §8 establishes and §9 extends to the
//! TTL/LRU layers.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, SocketAddrV4, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Serialize;
use spf_core::{
    auth_layers, check_host, check_host_cached, compile_policy_shared, AuthCacheStats, AuthOutcome,
    CompileConfig, CompiledPolicy, CompilerStats, EvalContext, EvalPolicy, Evaluation, SubtreeMemo,
    SubtreeMemoStats,
};
use spf_dns::{
    bind_udp_tcp_pair, serve_connections, serve_datagrams, Clock, DatagramHandler, Resolver,
    SystemClock,
};
use spf_types::{render_stats, Backend, DomainName, Evaluator, StatItem, Stats};

use crate::cache::{ServiceVerdictCache, TtlLru, TtlLruConfig, TtlLruStats};
use crate::histogram::{LatencySnapshot, LogHistogram};
use crate::proto::{
    decode_datagram, decode_payload, peek_query_id, split_frame, write_response, write_verdict,
    Frame, FrameError, QueryFrame, ResponseFrame, Status, LEN_PREFIX, MAX_PAYLOAD,
};

/// Daemon sizing and engine. Every verdict is evaluated under RFC
/// 7208's limits ([`EvalPolicy::default`]).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded request-queue capacity; the `try_send` overflow beyond
    /// it is answered with a typed `overloaded` response.
    pub queue_capacity: usize,
    /// How verdicts are produced. [`Evaluator::Interpreted`] evaluates
    /// every query bare; [`Evaluator::Cached`] keeps the verdict memo;
    /// [`Evaluator::Compiled`] adds the compiled-policy store on top of
    /// it: each domain's SPF tree is compiled to an interval matcher on
    /// first query and verdicts answer from the tables, residual regions
    /// falling back to the memoized evaluator.
    pub evaluator: Evaluator,
    /// Capacity and TTL of each store the evaluator keeps. Compiles
    /// share include/redirect subtrees through one [`SubtreeMemo`] per
    /// generation, which rolls over at half this TTL or after `capacity`
    /// subtree compiles. A table is stamped fresh as of its generation's
    /// birth, so it expires one TTL after the oldest zone data it may
    /// hold: the compiled store expires on the same TTL mechanism and
    /// clock as the verdict memo, and no table older than one TTL is
    /// served.
    pub store: TtlLruConfig,
}

impl ServiceConfig {
    /// A config with `workers` threads and the defaults elsewhere.
    pub fn with_workers(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers: workers.max(1),
            ..ServiceConfig::default()
        }
    }

    /// A config with `workers` threads under `backend`'s evaluator. The
    /// backend's transport is the *resolver's* concern — the caller
    /// assembles that stack (see `spf_bench::build_resolver`) and hands
    /// the resolver in.
    pub fn from_backend(backend: Backend, workers: usize) -> ServiceConfig {
        ServiceConfig {
            evaluator: backend.evaluator,
            ..ServiceConfig::with_workers(workers)
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 1024,
            evaluator: Evaluator::Cached,
            store: TtlLruConfig::default(),
        }
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    inline_served: AtomicU64,
    stacked_served: AtomicU64,
    udp_frames: AtomicU64,
    udp_batches: AtomicU64,
    tcp_frames: AtomicU64,
    overloaded: AtomicU64,
    bad_frames: AtomicU64,
    oversized: AtomicU64,
    shutdown_rejects: AtomicU64,
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
}

/// Point-in-time service counters plus cache and latency snapshots —
/// what `repro -- serve` prints as its `[service]` line.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceTelemetry {
    /// Queries evaluated and answered `ok`.
    pub served: u64,
    /// Of those, answered where they were decoded — compiled-table hits
    /// on the UDP listener or a TCP connection thread — without
    /// crossing the queue. `served - inline_served` went to a worker.
    pub inline_served: u64,
    /// Of `served`, stacked (SPF × DMARC × MTA-STS) queries.
    pub stacked_served: u64,
    /// Frames received over UDP.
    pub udp_frames: u64,
    /// `recvmmsg` calls that returned them: `udp_frames / udp_batches`
    /// is the mean batch, the number of queries one listener wake-up
    /// and one reply system call were spread over.
    pub udp_batches: u64,
    /// Frames received over TCP.
    pub tcp_frames: u64,
    /// Queries refused with `overloaded` (queue full).
    pub overloaded: u64,
    /// Frames refused with `bad-request` (decode failure).
    pub bad_frames: u64,
    /// Queries evaluated whose verdict did not fit a response frame,
    /// answered `bad-request` instead.
    pub oversized: u64,
    /// Queries refused with `shutting-down` (arrived mid-drain).
    pub shutdown_rejects: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
    /// High-water queue depth.
    pub peak_queue_depth: u64,
    /// Verdict-memo counters, when a cache is configured.
    pub cache: Option<TtlLruStats>,
    /// Record-memo counters, when a cache is configured.
    pub records: Option<TtlLruStats>,
    /// Compiler counters (the `[compiler]` line), when the compiled
    /// backend is configured.
    pub compiled: Option<CompilerStats>,
    /// Compiled-policy store counters, when the backend is configured.
    pub compiled_cache: Option<TtlLruStats>,
    /// Subtree-memo counters summed over every memo generation, when
    /// the backend is configured. Which worker compiles a provider first
    /// is a race, so they stay out of [`CompilerStats`].
    pub subtrees: Option<SubtreeMemoStats>,
    /// Memo generations so far (0 without a compiled backend).
    pub generations: u64,
    /// DMARC/MTA-STS layer-memo counters (only stacked queries touch
    /// the memo, so all-zero means no client asked for the stack, or
    /// the service has no verdict memo).
    pub auth_cache: AuthCacheStats,
    /// Decode-to-reply latency distribution: from the frame decoding
    /// into a query to its reply being written (listener) or sent
    /// (worker), one sample per evaluated query.
    pub latency: LatencySnapshot,
}

impl ServiceTelemetry {
    /// Mean datagrams per UDP batch (0 before the first).
    fn mean_udp_batch(&self) -> f64 {
        if self.udp_batches == 0 {
            0.0
        } else {
            self.udp_frames as f64 / self.udp_batches as f64
        }
    }

    /// The conservation laws a snapshot taken after quiescence (every
    /// query sent has been answered; simplest after
    /// [`VerdictService::shutdown`]) must satisfy, or the first one it
    /// breaks:
    ///
    /// * every frame received was disposed of exactly once — refused
    ///   (`bad`, `shutting-down`, `overloaded`) or evaluated (`served`,
    ///   `oversized`);
    /// * every evaluated query is in the latency histogram once;
    /// * with a compiled backend, every query that passed the gate
    ///   probed the store once and every evaluated one was classified
    ///   table or fallback once; the listener can only have answered
    ///   store hits from the tables; and what it did not answer a
    ///   worker did — at least every store miss and every fallback, at
    ///   most those plus the stacked queries;
    /// * the compiler's counters keep [`CompilerStats::check_conservation`]'s
    ///   law, and, summed over memo generations, the subtree memo's keep
    ///   [`SubtreeMemoStats::check_conservation`]'s;
    /// * without one, the listener answered nothing;
    /// * every entry each store admitted — the verdict memo, the record
    ///   memo and the compiled store — is still resident, was evicted,
    ///   expired or was invalidated.
    pub fn check_conservation(&self) -> Result<(), String> {
        let law = |holds: bool, what: &str| {
            if holds {
                Ok(())
            } else {
                Err(format!("{what}: {self:?}"))
            }
        };
        let frames = self.udp_frames + self.tcp_frames;
        let evaluated = self.served + self.oversized;
        law(
            frames == self.bad_frames + self.shutdown_rejects + self.overloaded + evaluated,
            "frames != bad + shutting-down + overloaded + served + oversized",
        )?;
        law(
            self.latency.count == evaluated,
            "latency samples != served + oversized",
        )?;
        law(self.inline_served <= self.served, "inline > served")?;
        for (stats, store) in [
            (&self.cache, "verdict memo"),
            (&self.records, "record memo"),
            (&self.compiled_cache, "compiled store"),
        ] {
            if let Some(stats) = stats {
                law(
                    stats.is_consistent(),
                    &format!(
                        "{store} inserts != entries + evictions + expirations + invalidations"
                    ),
                )?;
            }
        }
        let (Some(compiler), Some(store)) = (&self.compiled, &self.compiled_cache) else {
            return law(self.inline_served == 0, "inline answers without tables");
        };
        compiler.check_conservation()?;
        if let Some(subtrees) = &self.subtrees {
            subtrees.check_conservation()?;
        }
        law(
            store.probes() == frames - self.bad_frames - self.shutdown_rejects,
            "store probes != queries past the gate",
        )?;
        law(
            compiler.compiled_verdicts + compiler.fallback_verdicts == evaluated,
            "table + fallback verdicts != served + oversized",
        )?;
        law(
            self.inline_served <= store.hits.min(compiler.compiled_verdicts),
            "inline answers > store hits or table verdicts",
        )?;
        let by_workers = self.served - self.inline_served;
        let must = store.misses.max(compiler.fallback_verdicts);
        let may = store.misses + compiler.fallback_verdicts + self.stacked_served;
        law(
            must <= by_workers + self.overloaded + self.oversized && by_workers <= may,
            "worker-answered outside [misses ∨ fallbacks, misses + fallbacks + stacked]",
        )
    }
}

impl Stats for ServiceTelemetry {
    fn scope(&self) -> &'static str {
        "service"
    }

    fn items(&self) -> Vec<StatItem> {
        let mut items = vec![
            StatItem::count("served", self.served),
            StatItem::count("inline", self.inline_served),
            StatItem::count("stacked", self.stacked_served),
            StatItem::count("udp", self.udp_frames),
            StatItem::float("udp_batch", self.mean_udp_batch()),
            StatItem::count("tcp", self.tcp_frames),
            StatItem::count("overloaded", self.overloaded),
            StatItem::count("bad", self.bad_frames),
            StatItem::count("oversized", self.oversized),
            StatItem::text(
                "queue",
                format!("{}/{}", self.queue_depth, self.peak_queue_depth),
            ),
        ];
        if let Some(cache) = &self.cache {
            items.push(StatItem::percent("cache_hit", cache.hit_rate()));
            items.push(StatItem::count("cache_entries", cache.entries));
            items.push(StatItem::count("cache_evict", cache.evictions));
            items.push(StatItem::count("cache_expire", cache.expirations));
        }
        if let Some(records) = &self.records {
            items.push(StatItem::count("record_hits", records.hits));
            items.push(StatItem::count("record_misses", records.misses));
            items.push(StatItem::count("record_entries", records.entries));
        }
        if self.stacked_served > 0 {
            items.push(StatItem::percent(
                "dmarc_hit",
                self.auth_cache.dmarc_hit_rate(),
            ));
        }
        items.push(StatItem::float("lat_p50_us", self.latency.p50_us));
        items.push(StatItem::float("lat_p99_us", self.latency.p99_us));
        items.push(StatItem::float("lat_p999_us", self.latency.p999_us));
        items
    }
}

impl std::fmt::Display for ServiceTelemetry {
    /// The `[service]` line (one [`render_stats`] call), plus — when the
    /// compiled backend is on — the `[compiler]` line, ending in the
    /// subtree memo's counters and generations, and the `[store]` line,
    /// every one through the same shared formatter.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&Stats::render(self))?;
        if let Some(compiled) = &self.compiled {
            let mut items = compiled.items();
            items.extend(self.subtrees.iter().flat_map(SubtreeMemoStats::items));
            items.push(StatItem::count("generations", self.generations));
            write!(f, "\n{}", render_stats(compiled.scope(), &items))?;
            if let Some(store) = &self.compiled_cache {
                let items = [
                    StatItem::percent("hit", store.hit_rate()),
                    StatItem::count("entries", store.entries),
                    StatItem::count("expirations", store.expirations),
                ];
                write!(f, " {}", render_stats("store", &items))?;
            }
        }
        Ok(())
    }
}

/// The service's compiled backend: the per-domain policy store, the
/// subtree memo its compiles share, and the counters behind the
/// `[compiler]` telemetry line. Compiles are rare (once per domain per
/// TTL) and go through the mutexes; the per-query verdict split stays on
/// atomics.
///
/// The store expires and is invalidated exactly like the verdict memo: a
/// compiled policy is a batch of memoized DNS answers, so it gets the
/// same staleness bound relative to zone mutation. It is keyed by domain
/// alone because the policy and work cap are fixed per service.
struct CompiledBackend {
    store: TtlLru<DomainName, Arc<CompiledPolicy>>,
    config: CompileConfig,
    clock: Arc<dyn Clock>,
    generation: Mutex<Generation>,
    /// A generation rolls over at this age (half the store's TTL)…
    max_age: Duration,
    /// …or once it has compiled this many subtrees (the store's capacity).
    max_compiles: u64,
    /// Final counters of the generations let go of.
    retired: Mutex<SubtreeMemoStats>,
    stats: Mutex<CompilerStats>,
    compiled_verdicts: AtomicU64,
    fallback_verdicts: AtomicU64,
}

const BACKEND_POISONED: &str = "a worker panicked holding a compiled-backend lock";

/// The [`SubtreeMemo`] every compile goes through until it rolls over.
/// Each of its subtrees was compiled from zone data read at or after
/// `born`, so a table built through it is stamped fresh as of `born`
/// (DESIGN.md §10 *Shared subtrees*).
struct Generation {
    memo: Arc<SubtreeMemo>,
    born: Duration,
    /// Generations so far, this one included.
    count: u64,
}

impl CompiledBackend {
    fn new(store_config: TtlLruConfig, clock: Arc<dyn Clock>) -> Self {
        CompiledBackend {
            max_age: store_config.ttl / 2,
            max_compiles: store_config.capacity as u64,
            store: TtlLru::new(store_config, Arc::clone(&clock)),
            config: CompileConfig::default(),
            generation: Mutex::new(Generation {
                memo: Arc::new(SubtreeMemo::new()),
                born: clock.now(),
                count: 1,
            }),
            clock,
            retired: Mutex::new(SubtreeMemoStats::default()),
            stats: Mutex::new(CompilerStats::default()),
            compiled_verdicts: AtomicU64::new(0),
            fallback_verdicts: AtomicU64::new(0),
        }
    }

    /// Compile `domain` through the current generation's memo — rolled
    /// over first if it is too old or has compiled too much — and admit
    /// the tables as fresh as of the generation's birth.
    fn compile(&self, resolver: &dyn Resolver, domain: &DomainName) -> Arc<CompiledPolicy> {
        let (memo, born) = {
            let now = self.clock.now();
            let mut generation = self.generation.lock().expect(BACKEND_POISONED);
            if now.saturating_sub(generation.born) >= self.max_age
                || generation.memo.stats().compiles >= self.max_compiles
            {
                let old = std::mem::replace(&mut generation.memo, Arc::new(SubtreeMemo::new()));
                self.release(old);
                generation.born = now;
                generation.count += 1;
            }
            (Arc::clone(&generation.memo), generation.born)
        };
        let tables = Arc::new(compile_policy_shared(resolver, domain, &self.config, &memo));
        self.release(memo);
        self.stats.lock().expect(BACKEND_POISONED).record(&tables);
        self.store
            .insert_as_of(domain.clone(), Arc::clone(&tables), born);
        tables
    }

    /// Let go of a generation's memo. Whoever lets go last — the
    /// roll-over, or the last compile still running through it — adds
    /// its final counters to `retired`, so no in-flight compile's
    /// counts are lost.
    fn release(&self, memo: Arc<SubtreeMemo>) {
        if let Some(memo) = Arc::into_inner(memo) {
            add_subtrees(
                &mut self.retired.lock().expect(BACKEND_POISONED),
                memo.stats(),
            );
        }
    }

    fn snapshot(&self) -> CompilerStats {
        let mut stats = *self.stats.lock().unwrap();
        stats.compiled_verdicts = self.compiled_verdicts.load(Ordering::Relaxed);
        stats.fallback_verdicts = self.fallback_verdicts.load(Ordering::Relaxed);
        stats
    }

    /// Subtree-memo counters summed over every generation, and how many
    /// generations there have been.
    fn subtrees(&self) -> (SubtreeMemoStats, u64) {
        let generation = self.generation.lock().expect(BACKEND_POISONED);
        let mut total = *self.retired.lock().expect(BACKEND_POISONED);
        add_subtrees(&mut total, generation.memo.stats());
        (total, generation.count)
    }
}

fn add_subtrees(total: &mut SubtreeMemoStats, more: SubtreeMemoStats) {
    total.lookups += more.lookups;
    total.compiles += more.compiles;
    total.composed += more.composed;
    total.fallbacks += more.fallbacks;
}

enum ReplyPath {
    Udp {
        socket: Arc<UdpSocket>,
        peer: SocketAddr,
    },
    Tcp {
        stream: Arc<Mutex<TcpStream>>,
    },
}

impl ReplyPath {
    /// Send one reply frame back to the client.
    fn send(&self, wire: &[u8]) -> std::io::Result<()> {
        match self {
            ReplyPath::Udp { socket, peer } => socket.send_to(wire, *peer).map(|_| ()),
            ReplyPath::Tcp { stream } => write_frames(stream, wire),
        }
    }
}

/// Write whole frames to a connection's shared write half.
fn write_frames(stream: &Mutex<TcpStream>, wire: &[u8]) -> std::io::Result<()> {
    let mut guard = stream.lock().unwrap();
    guard.write_all(wire)?;
    guard.flush()
}

struct Job {
    query: QueryFrame,
    /// When the frame decoded into `query`: the latency sample's start.
    decoded_at: Instant,
    reply: ReplyPath,
    /// What `dispatch`'s probe of the compiled store found (`None`:
    /// not resident, expired, or no compiled backend). A query probes
    /// the store once, where it is decoded; the worker compiles on a
    /// miss instead of probing again.
    tables: Option<Arc<CompiledPolicy>>,
}

/// Append a non-`ok` response to `out`.
fn write_error(out: &mut Vec<u8>, id: u64, status: Status, message: &str) {
    write_response(out, &ResponseFrame::error(id, status, message))
        .expect("status messages are a few dozen bytes");
}

/// The bounded request queue from the listeners to the workers, who
/// sleep on `ready` while it is empty (DESIGN.md §9 says why this is not
/// a `sync_channel`). A poisoned lock is recovered: a push, a pop and
/// closing each leave the queue whole.
struct JobQueue {
    state: Mutex<Queued>,
    ready: Condvar,
    capacity: usize,
}

struct Queued {
    jobs: VecDeque<Job>,
    /// Cleared once at shutdown, after every listener has stopped.
    open: bool,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(Queued {
                jobs: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admit `job` and wake one sleeping worker, or refuse it with the
    /// status a full (`Overloaded`) or closed (`ShuttingDown`) queue
    /// answers.
    fn try_send(&self, job: Job) -> Result<(), Status> {
        let mut queued = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !queued.open {
            return Err(Status::ShuttingDown);
        }
        if queued.jobs.len() >= self.capacity {
            return Err(Status::Overloaded);
        }
        queued.jobs.push_back(job);
        drop(queued);
        self.ready.notify_one();
        Ok(())
    }

    /// The next job, waiting for one while the queue is open; `None`
    /// once it is closed and empty.
    fn recv(&self) -> Option<Job> {
        let queued = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut queued = self
            .ready
            .wait_while(queued, |queued| queued.jobs.is_empty() && queued.open)
            .unwrap_or_else(PoisonError::into_inner);
        queued.jobs.pop_front()
    }

    /// Refuse new jobs; the workers finish the admitted ones and exit.
    fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .open = false;
        self.ready.notify_all();
    }
}

/// Everything the daemon's threads share.
struct Shared {
    resolver: Arc<dyn Resolver>,
    cache: Option<ServiceVerdictCache>,
    compiled: Option<CompiledBackend>,
    counters: Counters,
    latency: LogHistogram,
    queue: JobQueue,
    shutdown: AtomicBool,
}

impl Shared {
    /// Append the `ok` reply `write` makes and count it served — or,
    /// when it is refused as too large for a frame (how large a verdict
    /// gets is up to the zone), a typed `bad-request` counted
    /// `oversized`. Counted before the reply leaves (the name-server
    /// idiom): a client holding the response must never read a stale
    /// counter. Returns whether the query was served.
    fn reply_ok(
        &self,
        out: &mut Vec<u8>,
        id: u64,
        write: impl FnOnce(&mut Vec<u8>) -> Result<(), FrameError>,
    ) -> bool {
        match write(out) {
            Ok(()) => {
                self.counters.served.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(e) => {
                self.counters.oversized.fetch_add(1, Ordering::Relaxed);
                let message = format!("verdict does not fit a response frame ({e})");
                write_error(out, id, Status::BadRequest, &message);
                false
            }
        }
    }

    /// The worker's half of the ladder: compile on a store miss, answer
    /// from the tables, fall back to the (memoized) evaluator.
    fn evaluate(&self, query: &QueryFrame, probed: Option<Arc<CompiledPolicy>>) -> Evaluation {
        if let Some(backend) = &self.compiled {
            // `dispatch` probed the TTL store — an expired artifact was
            // removed by that probe, never served — so a miss compiles
            // here, against the live zone. Unless another worker has
            // since: a burst for one cold domain misses once per query
            // in flight, so look again (uncounted — the query's probe
            // is spent) before paying for a compile someone else did.
            let tables = probed
                .or_else(|| backend.store.peek(&query.domain))
                .unwrap_or_else(|| backend.compile(self.resolver.as_ref(), &query.domain));
            if let Some(eval) = tables.verdict(query.ip) {
                backend.compiled_verdicts.fetch_add(1, Ordering::Relaxed);
                return eval;
            }
            backend.fallback_verdicts.fetch_add(1, Ordering::Relaxed);
        }
        let ctx = EvalContext::mail_from(query.ip, &query.sender_local, query.domain.clone());
        match &self.cache {
            Some(memo) => check_host_cached(
                self.resolver.as_ref(),
                &ctx,
                &query.domain,
                &EvalPolicy::default(),
                memo,
            ),
            None => check_host(
                self.resolver.as_ref(),
                &ctx,
                &query.domain,
                &EvalPolicy::default(),
            ),
        }
    }
}

/// Decode outcome → a reply appended to `out`, or a job for the
/// workers; shared by the UDP listener and the TCP connection threads,
/// which send whatever `out` holds once their batch of frames is done.
///
/// This is where the evaluation ladder splits. A plain query whose
/// compiled tables are resident and live and whose address falls in a
/// compiled range is answered here: a store probe, a binary search and
/// a body written into `out` — nothing that can block. What can touch
/// the resolver goes through the bounded queue, with the probe's result
/// and, from `reply_path`, the way back.
fn dispatch(
    shared: &Shared,
    decoded: Result<Frame, FrameError>,
    raw_payload: &[u8],
    reply_path: impl FnOnce() -> ReplyPath,
    out: &mut Vec<u8>,
) {
    let counters = &shared.counters;
    let query = match decoded {
        Ok(Frame::Query(query)) => query,
        Ok(Frame::Response(r)) => {
            counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            write_error(out, r.id, Status::BadRequest, "unexpected response frame");
            return;
        }
        Err(e) => {
            counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            let id = peek_query_id(raw_payload).unwrap_or(0);
            write_error(out, id, Status::BadRequest, &e.to_string());
            return;
        }
    };
    if shared.shutdown.load(Ordering::Relaxed) {
        counters.shutdown_rejects.fetch_add(1, Ordering::Relaxed);
        write_error(out, query.id, Status::ShuttingDown, "service draining");
        return;
    }
    let decoded_at = Instant::now();
    let mut tables = None;
    if let Some(backend) = &shared.compiled {
        tables = backend.store.get(&query.domain);
        let table_hit = match &tables {
            Some(tables) if !query.stack => tables.verdict_ref(query.ip),
            _ => None,
        };
        if let Some(eval) = table_hit {
            backend.compiled_verdicts.fetch_add(1, Ordering::Relaxed);
            if shared.reply_ok(out, query.id, |out| write_verdict(out, query.id, eval)) {
                counters.inline_served.fetch_add(1, Ordering::Relaxed);
            }
            shared.latency.record(decoded_at.elapsed());
            return;
        }
    }
    let id = query.id;
    let job = Job {
        query,
        decoded_at,
        reply: reply_path(),
        tables,
    };
    // Count the admission *before* the job becomes visible to workers:
    // a worker can dequeue (and decrement) the instant `try_send`
    // returns, so incrementing afterwards would let the depth counter
    // underflow. Rejected sends roll their increment back.
    let depth = counters.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    counters
        .peak_queue_depth
        .fetch_max(depth, Ordering::Relaxed);
    if let Err(status) = shared.queue.try_send(job) {
        counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let (refusals, message) = match status {
            Status::Overloaded => (&counters.overloaded, "request queue full"),
            _ => (&counters.shutdown_rejects, "service stopped"),
        };
        refusals.fetch_add(1, Ordering::Relaxed);
        write_error(out, id, status, message);
    }
}

/// The UDP listener's side of [`serve_datagrams`].
struct UdpListener {
    shared: Arc<Shared>,
    /// The way back for queued queries; the loop itself sends what
    /// `dispatch` answered inline.
    socket: Arc<UdpSocket>,
}

impl DatagramHandler for UdpListener {
    fn batch(&mut self) {
        self.shared
            .counters
            .udp_batches
            .fetch_add(1, Ordering::Relaxed);
    }

    fn handle(&mut self, datagram: &[u8], peer: SocketAddrV4, reply: &mut Vec<u8>) {
        self.shared
            .counters
            .udp_frames
            .fetch_add(1, Ordering::Relaxed);
        dispatch(
            &self.shared,
            decode_datagram(datagram),
            datagram.get(LEN_PREFIX..).unwrap_or(&[]),
            || ReplyPath::Udp {
                socket: Arc::clone(&self.socket),
                peer: SocketAddr::V4(peer),
            },
            reply,
        );
    }
}

fn tcp_connection_loop(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(25)))?;
    stream.set_nodelay(true)?;
    // Responses go through a shared, mutex-guarded clone so pipelined
    // queries can complete out of order while this thread keeps reading.
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut acc: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    // What this thread answered itself — inline verdicts and typed
    // refusals — for every frame of one read, written in one go.
    let mut out: Vec<u8> = Vec::new();
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                acc.extend_from_slice(&tmp[..n]);
                let mut used_total = 0;
                let hang_up = loop {
                    match split_frame(&acc[used_total..]) {
                        Ok(Some((used, payload))) => {
                            shared.counters.tcp_frames.fetch_add(1, Ordering::Relaxed);
                            dispatch(
                                shared,
                                decode_payload(payload),
                                payload,
                                || ReplyPath::Tcp {
                                    stream: Arc::clone(&writer),
                                },
                                &mut out,
                            );
                            used_total += used;
                        }
                        Ok(None) => break false,
                        Err(e) => {
                            // An oversized prefix means the stream can
                            // never re-synchronize: answer and hang up.
                            shared.counters.tcp_frames.fetch_add(1, Ordering::Relaxed);
                            shared.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                            write_error(&mut out, 0, Status::BadRequest, &e.to_string());
                            break true;
                        }
                    }
                };
                acc.drain(..used_total);
                if !out.is_empty() {
                    let sent = write_frames(&writer, &out);
                    out.clear();
                    sent?;
                }
                if hang_up {
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut out: Vec<u8> = Vec::new();
    while let Some(job) = shared.queue.recv() {
        shared.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let Job {
            query,
            decoded_at,
            reply,
            tables,
        } = job;
        // The SPF sub-verdict always routes through `evaluate` — the
        // same compiled/memo/bare ladder a plain query takes — so the
        // `spf` component of a stacked body is byte-identical to the
        // plain body for the same query (the DESIGN.md §13 rail).
        let eval = shared.evaluate(&query, tables);
        out.clear();
        if query.stack {
            let resolver = shared.resolver.as_ref();
            let (dmarc, mta_sts) = match &shared.cache {
                Some(cache) => cache.layers(resolver, &query.domain),
                None => auth_layers(resolver, &query.domain, None),
            };
            let outcome = AuthOutcome::compose(eval, dmarc, mta_sts);
            let response = ResponseFrame::stacked(query.id, &outcome);
            if shared.reply_ok(&mut out, query.id, |out| write_response(out, &response)) {
                shared
                    .counters
                    .stacked_served
                    .fetch_add(1, Ordering::Relaxed);
            }
        } else {
            shared.reply_ok(&mut out, query.id, |out| {
                write_verdict(out, query.id, &eval)
            });
        }
        let _ = reply.send(&out);
        shared.latency.record(decoded_at.elapsed());
    }
}

/// A running verdict daemon on background threads; dropping it shuts it
/// down gracefully (drain semantics — see [`VerdictService::shutdown`]).
pub struct VerdictService {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The UDP and TCP listener threads.
    listeners: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl VerdictService {
    /// Bind UDP + TCP on an ephemeral loopback port and start serving
    /// verdicts for `resolver`'s zones, with cache TTLs on [`SystemClock`].
    pub fn spawn(resolver: Arc<dyn Resolver>, config: ServiceConfig) -> std::io::Result<Self> {
        VerdictService::spawn_at(resolver, config, Arc::new(SystemClock::new()))
    }

    /// [`VerdictService::spawn`] with an explicit [`Clock`] — the hook
    /// the TTL proptests use to drive expiry with a `VirtualClock`.
    pub fn spawn_at(
        resolver: Arc<dyn Resolver>,
        config: ServiceConfig,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Self> {
        let (socket, listener) = bind_udp_tcp_pair()?;
        let socket = Arc::new(socket);
        socket.set_read_timeout(Some(Duration::from_millis(25)))?;
        let addr = socket.local_addr()?;

        let shared = Arc::new(Shared {
            resolver,
            cache: (config.evaluator != Evaluator::Interpreted)
                .then(|| ServiceVerdictCache::new(config.store, Arc::clone(&clock))),
            compiled: (config.evaluator == Evaluator::Compiled)
                .then(|| CompiledBackend::new(config.store, clock)),
            counters: Counters::default(),
            latency: LogHistogram::new(),
            queue: JobQueue::new(config.queue_capacity.max(1)),
            shutdown: AtomicBool::new(false),
        });

        let udp_handle = std::thread::Builder::new().name("svc-udp".into()).spawn({
            let shared = Arc::clone(&shared);
            let mut handler = UdpListener {
                shared: Arc::clone(&shared),
                socket: Arc::clone(&socket),
            };
            move || {
                serve_datagrams(
                    &socket,
                    MAX_PAYLOAD + LEN_PREFIX,
                    &shared.shutdown,
                    &mut handler,
                )
            }
        })?;
        let tcp_handle = std::thread::Builder::new().name("svc-tcp".into()).spawn({
            let shared = Arc::clone(&shared);
            let serve = {
                let shared = Arc::clone(&shared);
                move |stream, _| {
                    let _ = tcp_connection_loop(stream, &shared);
                }
            };
            move || serve_connections(listener, &shared.shutdown, "svc-tcp-conn", serve)
        })?;

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let handle = std::thread::Builder::new()
                .name(format!("svc-worker-{i}"))
                .spawn({
                    let shared = Arc::clone(&shared);
                    move || worker_loop(&shared)
                })?;
            workers.push(handle);
        }

        Ok(VerdictService {
            addr,
            shared,
            listeners: vec![udp_handle, tcp_handle],
            workers,
        })
    }

    /// The bound address (same port for UDP and TCP).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the counters, cache stats, and latency distribution.
    pub fn telemetry(&self) -> ServiceTelemetry {
        let shared = &self.shared;
        let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let counters = &shared.counters;
        let memo = shared.compiled.as_ref().map(CompiledBackend::subtrees);
        ServiceTelemetry {
            served: counter(&counters.served),
            inline_served: counter(&counters.inline_served),
            stacked_served: counter(&counters.stacked_served),
            udp_frames: counter(&counters.udp_frames),
            udp_batches: counter(&counters.udp_batches),
            tcp_frames: counter(&counters.tcp_frames),
            overloaded: counter(&counters.overloaded),
            bad_frames: counter(&counters.bad_frames),
            oversized: counter(&counters.oversized),
            shutdown_rejects: counter(&counters.shutdown_rejects),
            queue_depth: counter(&counters.queue_depth),
            peak_queue_depth: counter(&counters.peak_queue_depth),
            cache: shared.cache.as_ref().map(|c| c.stats()),
            records: shared.cache.as_ref().map(|c| c.record_stats()),
            compiled: shared.compiled.as_ref().map(|b| b.snapshot()),
            compiled_cache: shared.compiled.as_ref().map(|b| b.store.stats()),
            subtrees: memo.map(|(stats, _)| stats),
            generations: memo.map_or(0, |(_, count)| count),
            auth_cache: shared
                .cache
                .as_ref()
                .map_or_else(AuthCacheStats::default, |c| c.layer_stats()),
            latency: shared.latency.snapshot(),
        }
    }

    /// Per-stripe verdict-memo counters (`None` when uncached) — the
    /// shard-counter-sum test's window into the cache.
    pub fn cache_stripe_stats(&self) -> Option<Vec<TtlLruStats>> {
        self.shared.cache.as_ref().map(|c| c.stripe_stats())
    }

    /// Stop accepting queries, drain every admitted job, and join all
    /// threads. Admitted queries are always answered; queries arriving
    /// during the drain get a typed `shutting-down` response. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for handle in self.listeners.drain(..) {
            let _ = handle.join();
        }
        // With the listeners (and their connection threads) joined,
        // nothing sends any more: closing the queue lets the workers
        // finish it and exit.
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for VerdictService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use std::net::IpAddr;

    use spf_dns::{VirtualClock, ZoneResolver, ZoneStore};
    use spf_types::DomainName;

    use super::*;
    use crate::client::{ServiceClient, Transport};
    use crate::proto::encode_frame;
    use spf_testkit::dom;

    const SENDER: &str = "unit";
    const TTL: Duration = Duration::from_secs(60);

    fn ip(s: &str) -> IpAddr {
        s.parse().expect("ip parses")
    }

    /// A config with `workers` threads under `evaluator`.
    fn under(workers: usize, evaluator: Evaluator) -> ServiceConfig {
        ServiceConfig {
            evaluator,
            ..ServiceConfig::with_workers(workers)
        }
    }

    /// What bare `check_host` serializes to for the query.
    fn bare(store: &Arc<ZoneStore>, ip: IpAddr, domain: &DomainName) -> String {
        let resolver = ZoneResolver::new(Arc::clone(store));
        let ctx = EvalContext::mail_from(ip, SENDER, domain.clone());
        let eval = check_host(&resolver, &ctx, domain, &EvalPolicy::default());
        serde_json::to_string(&eval).expect("evaluation serializes")
    }

    /// `static.example` compiles to tables for every address;
    /// `partial.example` keeps `exists:%{i}…` as a residue behind its
    /// `ip4` range, and the gate admits exactly [`GATED`].
    fn world() -> Arc<ZoneStore> {
        let store = Arc::new(ZoneStore::new());
        store.add_txt(&dom("static.example"), "v=spf1 ip4:192.0.2.0/24 -all");
        store.add_txt(
            &dom("partial.example"),
            "v=spf1 ip4:192.0.2.0/24 exists:%{i}.gate.example -all",
        );
        store.add_a(
            &dom(&format!("{GATED}.gate.example")),
            "127.0.0.2".parse().expect("ip parses"),
        );
        store
    }

    const IN_RANGE: &str = "192.0.2.7";
    const GATED: &str = "198.51.100.9";
    const STRANGER: &str = "203.0.113.5";

    struct Lab {
        store: Arc<ZoneStore>,
        clock: Arc<VirtualClock>,
        service: VerdictService,
        udp: ServiceClient,
        tcp: ServiceClient,
    }

    impl Lab {
        fn new(config: ServiceConfig) -> Lab {
            let store = world();
            let clock = Arc::new(VirtualClock::new());
            let service = VerdictService::spawn_at(
                Arc::new(ZoneResolver::new(Arc::clone(&store))),
                config,
                Arc::clone(&clock) as Arc<dyn Clock>,
            )
            .expect("service spawns");
            let udp = ServiceClient::connect(service.addr(), Transport::Udp).expect("connects");
            let tcp = ServiceClient::connect(service.addr(), Transport::Tcp).expect("connects");
            Lab {
                store,
                clock,
                service,
                udp,
                tcp,
            }
        }

        /// One plain query: the body must be bare `check_host`'s, and
        /// the listener must have answered it exactly when `inline`.
        fn ask(&mut self, transport: Transport, domain: &str, from: &str, inline: bool) {
            let cell = format!("{domain} from {from} over {transport}");
            let (domain, from) = (dom(domain), ip(from));
            let before = self.service.telemetry();
            let client = match transport {
                Transport::Udp => &mut self.udp,
                Transport::Tcp => &mut self.tcp,
            };
            let response = client.query(from, &domain, SENDER).expect("query");
            assert_eq!(response.status, Status::Ok, "{cell}");
            let expected = bare(&self.store, from, &domain);
            assert!(
                response.body == expected.as_bytes(),
                "{cell}: served {} != bare {expected}",
                String::from_utf8_lossy(&response.body)
            );
            let after = self.service.telemetry();
            assert_eq!(after.served - before.served, 1, "{cell}");
            assert_eq!(
                after.inline_served - before.inline_served,
                u64::from(inline),
                "{cell}: {after:?}"
            );
            if let (Some(b), Some(a)) = (before.compiled_cache, after.compiled_cache) {
                assert_eq!(a.probes() - b.probes(), 1, "one store probe [{cell}]");
            }
        }

        /// Quiesce, then hold the snapshot to its conservation laws.
        fn finish(mut self) -> ServiceTelemetry {
            self.service.shutdown();
            let telemetry = self.service.telemetry();
            telemetry.check_conservation().expect("conservation");
            telemetry
        }
    }

    fn compiled_config() -> ServiceConfig {
        ServiceConfig {
            store: TtlLruConfig::new(1024, TTL),
            ..under(2, Evaluator::Compiled)
        }
    }

    #[test]
    fn inline_and_queued_answers_are_the_bare_verdict_in_every_cell() {
        let mut lab = Lab::new(compiled_config());
        for transport in [Transport::Udp, Transport::Tcp] {
            // Cold store: a worker compiles. Resident: the listener answers.
            let cold = transport == Transport::Udp;
            lab.ask(transport, "static.example", IN_RANGE, !cold);
            lab.ask(transport, "static.example", IN_RANGE, true);
            lab.ask(transport, "static.example", STRANGER, true);
            // A residual address goes to a worker however resident the
            // tables are; a compiled range of the same policy does not.
            lab.ask(transport, "partial.example", GATED, false);
            lab.ask(transport, "partial.example", GATED, false);
            lab.ask(transport, "partial.example", STRANGER, false);
            lab.ask(transport, "partial.example", IN_RANGE, true);
        }

        // A stacked query goes to a worker (DMARC and MTA-STS look-ups
        // can block) even on a table hit; its SPF layer is the plain body.
        let before = lab.service.telemetry();
        let stacked = lab
            .tcp
            .query_stacked(ip(IN_RANGE), &dom("static.example"), SENDER)
            .expect("stacked query");
        let outcome = stacked.auth_outcome().expect("stacked body decodes");
        assert_eq!(
            serde_json::to_string(&outcome.spf).expect("serializes"),
            bare(&lab.store, ip(IN_RANGE), &dom("static.example"))
        );
        let after = lab.service.telemetry();
        assert_eq!(after.inline_served, before.inline_served);
        assert_eq!(after.stacked_served - before.stacked_served, 1);

        // Past the TTL the listener's probe removes the tables instead
        // of answering from them: a zone mutated since shows at once,
        // from a worker, and the query after that is inline again.
        lab.clock.advance(TTL + Duration::from_secs(1));
        lab.store
            .replace_txt(&dom("static.example"), "v=spf1 ip4:203.0.113.0/24 -all");
        lab.ask(Transport::Udp, "static.example", STRANGER, false);
        lab.ask(Transport::Tcp, "static.example", STRANGER, true);

        let telemetry = lab.finish();
        let compiler = telemetry.compiled.expect("compiled backend");
        assert_eq!(telemetry.inline_served, 8, "{telemetry:?}");
        assert_eq!(compiler.domains_compiled, 3, "{compiler:?}");
        assert_eq!(compiler.fallback_verdicts, 6, "{compiler:?}");
        assert!(telemetry.compiled_cache.expect("store").expirations >= 1);

        // Every store's admission law is checked, and named when broken.
        let mut broken = telemetry.clone();
        broken.cache.as_mut().expect("verdict memo").inserts += 1;
        let law = broken.check_conservation().unwrap_err();
        assert!(law.starts_with("verdict memo inserts"), "{law}");
        let mut broken = telemetry.clone();
        broken.compiled_cache.as_mut().expect("store").inserts += 1;
        let law = broken.check_conservation().unwrap_err();
        assert!(law.starts_with("compiled store inserts"), "{law}");
    }

    #[test]
    fn a_service_without_tables_answers_nothing_inline() {
        for evaluator in [Evaluator::Cached, Evaluator::Interpreted] {
            let mut lab = Lab::new(under(2, evaluator));
            for transport in [Transport::Udp, Transport::Tcp] {
                lab.ask(transport, "static.example", IN_RANGE, false);
                lab.ask(transport, "static.example", IN_RANGE, false);
                lab.ask(transport, "partial.example", GATED, false);
                lab.ask(transport, "partial.example", STRANGER, false);
            }
            let telemetry = lab.finish();
            assert_eq!((telemetry.served, telemetry.inline_served), (8, 0));
        }
    }

    #[test]
    fn a_burst_sent_before_the_client_reads_is_answered_in_full() {
        const BURST: u64 = 128;
        let mut lab = Lab::new(compiled_config());
        lab.ask(Transport::Udp, "static.example", IN_RANGE, false);
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("client socket");
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        for id in 0..BURST {
            let frame = encode_frame(&Frame::Query(QueryFrame {
                id,
                ip: ip(IN_RANGE),
                domain: dom("static.example"),
                sender_local: SENDER.into(),
                stack: false,
            }));
            socket.send_to(&frame, lab.service.addr()).expect("send_to");
        }
        let expected = bare(&lab.store, ip(IN_RANGE), &dom("static.example"));
        let mut answered = vec![false; BURST as usize];
        let mut buf = [0u8; 4096];
        for _ in 0..BURST {
            let (len, _) = socket.recv_from(&mut buf).expect("an answer per query");
            let Ok(Frame::Response(r)) = decode_datagram(&buf[..len]) else {
                panic!("not a response frame");
            };
            assert_eq!(r.status, Status::Ok);
            assert!(r.body == expected.as_bytes(), "burst body diverged");
            assert!(!std::mem::replace(&mut answered[r.id as usize], true));
        }
        let telemetry = lab.finish();
        assert_eq!(telemetry.inline_served, BURST, "{telemetry:?}");
        assert!(telemetry.udp_batches <= telemetry.udp_frames);
    }

    #[test]
    fn a_verdict_too_large_for_a_frame_is_a_typed_error_not_a_dead_worker() {
        // One unknown "mechanism" 20 000 characters long: a permerror
        // whose `problem` quotes it back, for every address — so the
        // compiled service hits it on a worker (cold) and then on the
        // listener (resident), the others on their only worker twice.
        let record = format!("v=spf1 {} -all", "x".repeat(20_000));
        for evaluator in Evaluator::ALL {
            let listener_answers = evaluator == Evaluator::Compiled;
            let mut lab = Lab::new(under(1, evaluator));
            let big = dom("big.example");
            lab.store.add_txt(&big, &record);
            assert!(bare(&lab.store, ip(IN_RANGE), &big).len() > MAX_PAYLOAD);
            for transport in [Transport::Udp, Transport::Tcp] {
                let client = match transport {
                    Transport::Udp => &mut lab.udp,
                    Transport::Tcp => &mut lab.tcp,
                };
                let response = client.query(ip(IN_RANGE), &big, SENDER).expect("query");
                assert_eq!(response.status, Status::BadRequest, "{transport}");
                let message = response.message();
                assert!(message.contains("does not fit"), "{message}");
            }
            // The worker that met the verdict is the only one there is,
            // and it still answers.
            lab.ask(Transport::Udp, "partial.example", GATED, false);
            let telemetry = lab.finish();
            assert_eq!((telemetry.oversized, telemetry.served), (2, 1));
            assert_eq!(telemetry.bad_frames, 0, "{telemetry:?}");
            if listener_answers {
                let compiler = telemetry.compiled.expect("compiled backend");
                assert_eq!(compiler.compiled_verdicts, 2, "{compiler:?}");
            }
        }
    }

    #[test]
    fn a_multi_byte_character_in_a_version_tag_does_not_kill_the_worker() {
        // `é` straddles the byte where `v=spf1` would end. The record is
        // not SPF, so the verdict is `none` — and the only worker there
        // is answers the next query too (a compiled service compiles
        // each domain there first).
        for evaluator in Evaluator::ALL {
            let mut lab = Lab::new(under(1, evaluator));
            lab.store
                .add_txt(&dom("garbled.example"), "v=spf\u{e9} -all");
            lab.ask(Transport::Udp, "garbled.example", IN_RANGE, false);
            lab.ask(Transport::Udp, "static.example", IN_RANGE, false);
            let telemetry = lab.finish();
            assert_eq!(telemetry.served, 2, "{telemetry:?}");
        }
    }
}
