//! TTL-aware sharded LRU cache, and its [`VerdictCache`] adapter.
//!
//! PR 5's [`VerdictCache`] memo is scoped to one zone state: the batch
//! engines build it, drain a scan, and drop it. A resident service needs
//! two more policies on top, both provided here:
//!
//! * **TTL expiry** on the pluggable [`Clock`]: a resident entry older
//!   than the configured TTL is never served — the probe removes it and
//!   reports a miss, so the caller re-resolves against the live zone
//!   (the service's analogue of DNS record TTLs; `VirtualClock` makes the
//!   policy testable without wall-clock sleeps).
//! * **LRU eviction** per stripe: capacity is divided across the same
//!   deterministic [`CacheKey`] stripes the analyzer cache uses, and each
//!   stripe evicts its least-recently-probed entry at capacity, so hot
//!   domains stay resident under cold-miss floods.
//!
//! Counter discipline: every counter mutates *inside* its stripe's lock,
//! in the same critical section as the map mutation it describes. That
//! buys the accounting invariant the service telemetry (and the
//! shard-counter-sum test) relies on:
//!
//! ```text
//! inserts == entries + evictions + insert-side expirations
//! probes  == hits + misses            (probes is derived, never stored)
//! ```
//!
//! with no transient window where a concurrent reader can observe a
//! removed entry still counted resident.

use std::collections::{BTreeMap, HashMap};
use std::net::IpAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use serde::Serialize;
use spf_analyzer::{CacheKey, DEFAULT_CACHE_SHARDS};
use spf_core::{BudgetKey, CompiledPolicy, SubtreeVerdict, VerdictCache};
use spf_dns::Clock;
use spf_types::{DomainHashBuilder, DomainName};

/// Capacity / striping / expiry policy for a [`TtlLru`].
#[derive(Debug, Clone)]
pub struct TtlLruConfig {
    /// Total entry budget, divided evenly across stripes (each stripe
    /// holds at least one entry, so tiny capacities still admit work).
    pub capacity: usize,
    /// Lock stripes; see [`DEFAULT_CACHE_SHARDS`].
    pub shards: usize,
    /// Entries older than this are never served.
    pub ttl: Duration,
}

impl TtlLruConfig {
    /// A config with `capacity` entries and `ttl` expiry at the default
    /// stripe count.
    pub fn new(capacity: usize, ttl: Duration) -> TtlLruConfig {
        TtlLruConfig {
            capacity,
            shards: DEFAULT_CACHE_SHARDS,
            ttl,
        }
    }

    /// Override the stripe count.
    pub fn shards(mut self, shards: usize) -> TtlLruConfig {
        self.shards = shards.max(1);
        self
    }
}

impl Default for TtlLruConfig {
    fn default() -> Self {
        TtlLruConfig::new(65_536, Duration::from_secs(300))
    }
}

/// Aggregated (or per-stripe) cache counters. All fields are maintained
/// under the stripe lock, so a snapshot taken after quiescence satisfies
/// [`TtlLruStats::is_consistent`] exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TtlLruStats {
    /// Probes that returned a live entry.
    pub hits: u64,
    /// Probes that found nothing servable (absent or expired).
    pub misses: u64,
    /// Entries removed because their TTL had lapsed (discovered on
    /// probe or on insert over a stale resident).
    pub expirations: u64,
    /// Entries removed to make room at capacity.
    pub evictions: u64,
    /// Entries removed by explicit invalidation (a churn delta told the
    /// cache the underlying zone changed before the TTL could notice).
    pub invalidations: u64,
    /// Entries admitted.
    pub inserts: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl spf_types::Stats for TtlLruStats {
    fn scope(&self) -> &'static str {
        "cache"
    }

    fn items(&self) -> Vec<spf_types::StatItem> {
        self.stat_items()
    }
}

impl TtlLruStats {
    /// Total probes (`hits + misses`).
    pub fn probes(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of probes that hit, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.probes() == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes() as f64
        }
    }

    /// This snapshot as [`spf_types::Stats`] items under the `cache`
    /// scope — the shared formatter behind every cache telemetry line.
    pub fn stat_items(&self) -> Vec<spf_types::StatItem> {
        use spf_types::StatItem;
        vec![
            StatItem::percent("hit", self.hit_rate()),
            StatItem::count("hits", self.hits),
            StatItem::count("misses", self.misses),
            StatItem::count("entries", self.entries),
            StatItem::count("evictions", self.evictions),
            StatItem::count("expirations", self.expirations),
            StatItem::count("invalidations", self.invalidations),
            StatItem::count("inserts", self.inserts),
        ]
    }

    /// The conservation law every quiescent snapshot must satisfy:
    /// every admitted entry is still resident, was evicted, expired
    /// (expirations are counted wherever discovered — probe or insert —
    /// and both removal sites debit the same pool), or was explicitly
    /// invalidated.
    pub fn is_consistent(&self) -> bool {
        self.inserts == self.entries + self.evictions + self.expirations + self.invalidations
    }

    /// Sum two snapshots field-wise (stripe totals → cache totals).
    pub fn merged(&self, other: &TtlLruStats) -> TtlLruStats {
        TtlLruStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            expirations: self.expirations + other.expirations,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            inserts: self.inserts + other.inserts,
            entries: self.entries + other.entries,
        }
    }
}

struct Entry<V> {
    value: V,
    expires_at: Duration,
    seq: u64,
}

struct Stripe<K, V> {
    map: HashMap<K, Entry<V>, DomainHashBuilder>,
    /// Recency order: ascending `seq` = least recently used first. Keys
    /// mirror `map`; the pair is only ever mutated together under the
    /// stripe lock.
    order: BTreeMap<u64, K>,
    next_seq: u64,
    stats: TtlLruStats,
}

impl<K, V> Default for Stripe<K, V> {
    fn default() -> Self {
        Stripe {
            map: HashMap::default(),
            order: BTreeMap::new(),
            next_seq: 0,
            stats: TtlLruStats::default(),
        }
    }
}

impl<K: CacheKey, V: Clone> Stripe<K, V> {
    fn remove(&mut self, key: &K, seq: u64) {
        self.map.remove(key);
        self.order.remove(&seq);
        self.stats.entries -= 1;
    }

    fn touch(&mut self, key: &K, old_seq: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.remove(&old_seq);
        self.order.insert(seq, key.clone());
        if let Some(entry) = self.map.get_mut(key) {
            entry.seq = seq;
        }
    }
}

/// A TTL-aware, lock-striped LRU map. See the module docs for the
/// policy and counter discipline.
pub struct TtlLru<K: CacheKey, V: Clone> {
    stripes: Box<[Mutex<Stripe<K, V>>]>,
    per_stripe_capacity: usize,
    ttl: Duration,
    clock: Arc<dyn Clock>,
}

impl<K: CacheKey, V: Clone> TtlLru<K, V> {
    /// Build a cache with `config`'s policy, expiring on `clock`.
    pub fn new(config: TtlLruConfig, clock: Arc<dyn Clock>) -> TtlLru<K, V> {
        let shards = config.shards.max(1);
        let per_stripe_capacity = config.capacity.div_ceil(shards).max(1);
        TtlLru {
            stripes: (0..shards).map(|_| Mutex::default()).collect(),
            per_stripe_capacity,
            ttl: config.ttl,
            clock,
        }
    }

    fn stripe(&self, key: &K) -> &Mutex<Stripe<K, V>> {
        let idx = (key.shard_hash() % self.stripes.len() as u64) as usize;
        &self.stripes[idx]
    }

    /// Probe for a live entry. An expired resident is removed, counted
    /// as one expiration and one miss, and `None` is returned — a stale
    /// value is never observable through this method.
    pub fn get(&self, key: &K) -> Option<V> {
        let now = self.clock.now();
        let mut stripe = self.stripe(key).lock().unwrap();
        let (live, seq) = match stripe.map.get(key) {
            Some(entry) => (entry.expires_at > now, entry.seq),
            None => {
                stripe.stats.misses += 1;
                return None;
            }
        };
        if !live {
            stripe.remove(key, seq);
            stripe.stats.expirations += 1;
            stripe.stats.misses += 1;
            return None;
        }
        stripe.touch(key, seq);
        stripe.stats.hits += 1;
        stripe.map.get(key).map(|e| e.value.clone())
    }

    /// A live entry under `key`, without counting a probe or touching
    /// recency. For a caller whose counted probe missed and who is
    /// about to pay for what a hit would have saved — to see whether
    /// someone else has paid since. A stale resident reads as absent
    /// and is left for [`insert`](Self::insert) to expire.
    pub fn peek(&self, key: &K) -> Option<V> {
        let now = self.clock.now();
        let stripe = self.stripe(key).lock().unwrap();
        stripe
            .map
            .get(key)
            .filter(|entry| entry.expires_at > now)
            .map(|entry| entry.value.clone())
    }

    /// Admit `value` under `key`. A live resident entry wins (keep-first,
    /// mirroring the analyzer cache: concurrent computations of the same
    /// key produce identical values, so the race is benign); a stale
    /// resident is expired and replaced; at capacity the stripe's least
    /// recently probed entry is evicted first.
    pub fn insert(&self, key: K, value: V) {
        let now = self.clock.now();
        let mut stripe = self.stripe(&key).lock().unwrap();
        if let Some(entry) = stripe.map.get(&key) {
            if entry.expires_at > now {
                return;
            }
            let seq = entry.seq;
            stripe.remove(&key, seq);
            stripe.stats.expirations += 1;
        }
        if stripe.map.len() >= self.per_stripe_capacity {
            if let Some((&oldest, _)) = stripe.order.iter().next() {
                if let Some(victim) = stripe.order.get(&oldest).cloned() {
                    stripe.remove(&victim, oldest);
                    stripe.stats.evictions += 1;
                }
            }
        }
        let seq = stripe.next_seq;
        stripe.next_seq += 1;
        stripe.order.insert(seq, key.clone());
        stripe.map.insert(
            key,
            Entry {
                value,
                expires_at: now.saturating_add(self.ttl),
                seq,
            },
        );
        stripe.stats.inserts += 1;
        stripe.stats.entries += 1;
    }

    /// Explicitly drop the entry under `key`, if resident, regardless
    /// of its TTL. Returns whether an entry was removed.
    ///
    /// TTL expiry bounds staleness *in time*; this bounds it *in
    /// causality*: when the caller knows the underlying zone changed (a
    /// churn delta re-published the domain), the entry must go **now**,
    /// not when its TTL happens to lapse — otherwise a churned domain
    /// could be served a verdict computed against the old zone for up
    /// to a full TTL.
    pub fn invalidate(&self, key: &K) -> bool {
        let mut stripe = self.stripe(key).lock().unwrap();
        match stripe.map.get(key) {
            Some(entry) => {
                let seq = entry.seq;
                stripe.remove(key, seq);
                stripe.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Explicitly drop every resident entry whose key matches `pred`;
    /// returns how many were removed. This is the churn-delta path for
    /// caches whose keys are wider than a domain (the verdict memo keys
    /// on `(domain, ip, budget)`, so one churned domain maps to a key
    /// *family*).
    pub fn invalidate_where(&self, mut pred: impl FnMut(&K) -> bool) -> u64 {
        let mut removed = 0u64;
        for stripe in self.stripes.iter() {
            let mut stripe = stripe.lock().unwrap();
            let victims: Vec<(K, u64)> = stripe
                .map
                .iter()
                .filter(|(k, _)| pred(k))
                .map(|(k, e)| (k.clone(), e.seq))
                .collect();
            for (key, seq) in victims {
                stripe.remove(&key, seq);
                stripe.stats.invalidations += 1;
                removed += 1;
            }
        }
        removed
    }

    /// Entries currently resident across all stripes.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters (stripe totals summed).
    pub fn stats(&self) -> TtlLruStats {
        self.stripe_stats()
            .iter()
            .fold(TtlLruStats::default(), |acc, s| acc.merged(s))
    }

    /// Per-stripe counter snapshots, in stripe order.
    pub fn stripe_stats(&self) -> Vec<TtlLruStats> {
        self.stripes
            .iter()
            .map(|s| s.lock().unwrap().stats)
            .collect()
    }
}

/// The `(domain, ip, budget)` key `check_host_cached` memoizes on (see
/// [`spf_core::BudgetKey`] for why the budget participates).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct VerdictKey {
    domain: DomainName,
    ip: IpAddr,
    budget: BudgetKey,
}

impl CacheKey for VerdictKey {
    fn shard_hash(&self) -> u64 {
        // Same deterministic mixer as the crawler's verdict memo: the
        // domain's precomputed FNV and the ip/budget words all flow
        // through DomainHasher, so stripe placement is reproducible.
        let mut hasher = spf_types::DomainHasher::default();
        std::hash::Hash::hash(self, &mut hasher);
        std::hash::Hasher::finish(&hasher)
    }
}

/// The service's [`VerdictCache`]: a [`TtlLru`] over subtree verdicts.
///
/// Layering note: `check_host_cached` consults this memo for whole
/// subtree verdicts, so one query's work populates entries every later
/// query sharing an include subtree reuses — until the TTL lapses, after
/// which the next probe re-resolves against the live zone. Verdict
/// bytes stay identical to bare `check_host` for the reasons DESIGN.md
/// §8 establishes (entry-relative counters, cacheability guards); the
/// TTL only bounds *staleness* relative to zone mutation.
pub struct ServiceVerdictCache {
    inner: TtlLru<VerdictKey, Arc<SubtreeVerdict>>,
}

impl ServiceVerdictCache {
    /// Build the verdict memo with `config`'s policy on `clock`.
    pub fn new(config: TtlLruConfig, clock: Arc<dyn Clock>) -> ServiceVerdictCache {
        ServiceVerdictCache {
            inner: TtlLru::new(config, clock),
        }
    }

    /// Aggregated cache counters.
    pub fn stats(&self) -> TtlLruStats {
        self.inner.stats()
    }

    /// Per-stripe counters (the shard-counter-sum test's view).
    pub fn stripe_stats(&self) -> Vec<TtlLruStats> {
        self.inner.stripe_stats()
    }

    /// Drop every memoized verdict involving `domain` — all `(domain,
    /// ip, budget)` keys — so a churned domain is never served a
    /// verdict computed against the old zone, even before its TTL
    /// expires. Returns how many entries were dropped.
    ///
    /// Scope note: this removes the entries keyed *at* `domain`, which
    /// is exactly right under the churn locality contract (a delta
    /// rewrites only the named domain's own records); a provider-style
    /// mutation under a domain other customers include must invalidate
    /// each affected root (or simply not be modeled as a churn delta).
    pub fn invalidate_domain(&self, domain: &DomainName) -> u64 {
        self.inner.invalidate_where(|key| key.domain == *domain)
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl VerdictCache for ServiceVerdictCache {
    fn get(
        &self,
        domain: &DomainName,
        ip: IpAddr,
        budget: BudgetKey,
    ) -> Option<Arc<SubtreeVerdict>> {
        self.inner.get(&VerdictKey {
            domain: domain.clone(),
            ip,
            budget,
        })
    }

    fn put(
        &self,
        domain: &DomainName,
        ip: IpAddr,
        budget: BudgetKey,
        verdict: Arc<SubtreeVerdict>,
    ) {
        self.inner.insert(
            VerdictKey {
                domain: domain.clone(),
                ip,
                budget,
            },
            verdict,
        );
    }
}

/// The compiled-backend store's key: compiled policies are per-domain
/// (the policy and work cap are fixed per service instance).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CompiledKey(DomainName);

impl CacheKey for CompiledKey {
    fn shard_hash(&self) -> u64 {
        let mut hasher = spf_types::DomainHasher::default();
        std::hash::Hash::hash(self, &mut hasher);
        std::hash::Hasher::finish(&hasher)
    }
}

/// The service's compiled-policy store: a [`TtlLru`] over
/// [`CompiledPolicy`] artifacts, invalidated **exactly like the verdict
/// memo** — same TTL mechanism, same pluggable clock, stale entries
/// removed on probe and never served. A compiled artifact is a batch of
/// memoized DNS answers just like a subtree verdict, so it gets the same
/// staleness bound relative to zone mutation.
pub struct CompiledPolicyCache {
    inner: TtlLru<CompiledKey, Arc<CompiledPolicy>>,
}

impl CompiledPolicyCache {
    /// Build the store with `config`'s policy on `clock`.
    pub fn new(config: TtlLruConfig, clock: Arc<dyn Clock>) -> CompiledPolicyCache {
        CompiledPolicyCache {
            inner: TtlLru::new(config, clock),
        }
    }

    /// Probe for a live compiled policy.
    pub fn get(&self, domain: &DomainName) -> Option<Arc<CompiledPolicy>> {
        self.inner.get(&CompiledKey(domain.clone()))
    }

    /// A live compiled policy, uncounted — [`TtlLru::peek`].
    pub fn peek(&self, domain: &DomainName) -> Option<Arc<CompiledPolicy>> {
        self.inner.peek(&CompiledKey(domain.clone()))
    }

    /// Admit a freshly compiled policy.
    pub fn insert(&self, domain: DomainName, compiled: Arc<CompiledPolicy>) {
        self.inner.insert(CompiledKey(domain), compiled);
    }

    /// Drop `domain`'s compiled artifact, if resident, regardless of
    /// its TTL — the churn-delta path: a compiled policy is a batch of
    /// memoized DNS answers, so a zone delta makes it wrong *now*, not
    /// at TTL lapse. Returns whether an artifact was dropped.
    pub fn invalidate(&self, domain: &DomainName) -> bool {
        self.inner.invalidate(&CompiledKey(domain.clone()))
    }

    /// Aggregated store counters.
    pub fn stats(&self) -> TtlLruStats {
        self.inner.stats()
    }

    /// Resident compiled policies.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::VirtualClock;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Key(u64);
    impl CacheKey for Key {
        fn shard_hash(&self) -> u64 {
            self.0
        }
    }

    fn cache(
        capacity: usize,
        shards: usize,
        ttl_secs: u64,
    ) -> (TtlLru<Key, u64>, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        let lru = TtlLru::new(
            TtlLruConfig::new(capacity, Duration::from_secs(ttl_secs)).shards(shards),
            Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
        );
        (lru, clock)
    }

    #[test]
    fn hit_then_expire_then_miss() {
        let (lru, clock) = cache(8, 1, 10);
        lru.insert(Key(1), 100);
        assert_eq!(lru.get(&Key(1)), Some(100));
        assert_eq!((lru.peek(&Key(1)), lru.peek(&Key(2))), (Some(100), None));
        clock.advance(Duration::from_secs(11));
        assert_eq!(lru.peek(&Key(1)), None, "a stale entry is not peekable");
        assert_eq!(lru.get(&Key(1)), None);
        let stats = lru.stats();
        // The peeks counted nothing.
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.expirations, 1);
        assert_eq!(stats.entries, 0);
        assert!(stats.is_consistent());
    }

    #[test]
    fn lru_evicts_least_recently_probed() {
        let (lru, _clock) = cache(2, 1, 1_000);
        lru.insert(Key(1), 1);
        lru.insert(Key(2), 2);
        assert_eq!(lru.get(&Key(1)), Some(1)); // 2 is now LRU
        lru.insert(Key(3), 3);
        assert_eq!(lru.get(&Key(2)), None, "LRU victim must be key 2");
        assert_eq!(lru.get(&Key(1)), Some(1));
        assert_eq!(lru.get(&Key(3)), Some(3));
        let stats = lru.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.is_consistent());
    }

    #[test]
    fn keep_first_on_live_resident_replace_on_stale() {
        let (lru, clock) = cache(8, 1, 10);
        lru.insert(Key(1), 1);
        lru.insert(Key(1), 2); // live resident wins
        assert_eq!(lru.get(&Key(1)), Some(1));
        clock.advance(Duration::from_secs(11));
        lru.insert(Key(1), 3); // stale resident replaced
        assert_eq!(lru.get(&Key(1)), Some(3));
        let stats = lru.stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.expirations, 1);
        assert!(stats.is_consistent());
    }

    /// The shard-counter-sum pin (the analyzer cache carries its twin):
    /// under genuinely concurrent probes, inserts, expirations, and
    /// evictions, the per-stripe counters — mutated only inside each
    /// stripe's lock, in the same critical section as the map — must
    /// sum to a consistent whole at quiescence.
    #[test]
    fn stripe_counters_sum_consistently_under_concurrent_load() {
        let (lru, clock) = cache(32, 4, 1);
        let lru = Arc::new(lru);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let lru = Arc::clone(&lru);
                let clock = Arc::clone(&clock);
                scope.spawn(move || {
                    for i in 0..4_000u64 {
                        // Overlapping key ranges across threads, far
                        // more keys than capacity, and a clock that
                        // jumps past the TTL: every counter transition
                        // gets exercised. (Each jump makes every
                        // resident stale, so the sweep that follows
                        // meets one however the threads interleave; a
                        // clock creeping 200 ms a step left "expired at
                        // all" to the scheduler, and a busy host said no
                        // once in thirty runs.)
                        let k = (t * 1_000 + i) % 96;
                        if i % 3 == 0 {
                            lru.insert(Key(k), t);
                        } else {
                            let _ = lru.get(&Key(k));
                        }
                        if t == 0 && i % 512 == 0 {
                            clock.advance(Duration::from_millis(1_100));
                        }
                    }
                });
            }
        });
        let merged = lru.stats();
        let stripes = lru.stripe_stats();
        let summed = stripes
            .iter()
            .fold(TtlLruStats::default(), |acc, s| acc.merged(s));
        assert_eq!(merged, summed, "stats() must be the stripe sum");
        assert!(merged.is_consistent(), "counters drifted: {merged:?}");
        assert_eq!(merged.entries, lru.len() as u64);
        assert!(merged.evictions > 0, "load never evicted: {merged:?}");
        assert!(merged.expirations > 0, "load never expired: {merged:?}");
        assert!(merged.hits > 0 && merged.misses > 0, "{merged:?}");
    }

    #[test]
    fn invalidate_removes_live_entry_before_ttl_and_balances_counters() {
        let (lru, _clock) = cache(8, 2, 1_000);
        lru.insert(Key(1), 1);
        lru.insert(Key(2), 2);
        // The entry is live — no TTL has lapsed — yet invalidation
        // removes it immediately.
        assert!(lru.invalidate(&Key(1)));
        assert!(!lru.invalidate(&Key(1)), "second invalidate finds nothing");
        assert_eq!(lru.get(&Key(1)), None);
        assert_eq!(lru.get(&Key(2)), Some(2));
        let stats = lru.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.expirations, 0);
        assert_eq!(stats.entries, 1);
        assert!(stats.is_consistent(), "{stats:?}");
    }

    #[test]
    fn invalidate_where_removes_the_whole_key_family() {
        let (lru, _clock) = cache(64, 4, 1_000);
        for k in 0..32u64 {
            lru.insert(Key(k), k);
        }
        let removed = lru.invalidate_where(|k| k.0 % 4 == 1);
        assert_eq!(removed, 8);
        for k in 0..32u64 {
            assert_eq!(lru.get(&Key(k)).is_some(), k % 4 != 1, "key {k}");
        }
        let stats = lru.stats();
        assert_eq!(stats.invalidations, 8);
        assert!(stats.is_consistent(), "{stats:?}");
    }

    /// The churn-delta pin: a churned domain must never be served a
    /// verdict computed against the old zone, even though its TTL has
    /// not expired. Without explicit invalidation the stale verdict IS
    /// served (that's the gap this path closes); with it, the next
    /// probe re-resolves against the live zone.
    #[test]
    fn churned_domain_never_served_stale_verdict_before_ttl() {
        use spf_core::{check_host_cached, EvalContext, EvalPolicy, SpfResult};
        use spf_dns::{ZoneResolver, ZoneStore};

        // The memo caches *include-subtree* verdicts, so the staleness
        // window is a churned domain that others include: the customer's
        // root record is always read live, but the provider subtree it
        // includes answers from the memo.
        let store = Arc::new(ZoneStore::new());
        let provider = DomainName::parse("provider.example").unwrap();
        let customer = DomainName::parse("customer.example").unwrap();
        store.add_txt(&provider, "v=spf1 ip4:192.0.2.7 -all");
        store.add_txt(&customer, "v=spf1 include:provider.example -all");
        let resolver = ZoneResolver::new(Arc::clone(&store));
        let clock = Arc::new(VirtualClock::new());
        let cache = ServiceVerdictCache::new(
            TtlLruConfig::new(1024, Duration::from_secs(3600)),
            Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
        );
        let policy = EvalPolicy::default();
        let ip: IpAddr = "192.0.2.7".parse().unwrap();
        let ctx = EvalContext::mail_from(ip, "attacker", customer.clone());

        let before = check_host_cached(&resolver, &ctx, &customer, &policy, &cache);
        assert_eq!(before.result, SpfResult::Pass);

        // The provider churns: the address is no longer authorized. The
        // TTL (1h) is nowhere near expiry.
        store.replace_txt(&provider, "v=spf1 -all");
        clock.advance(Duration::from_secs(1));

        // Demonstrate the gap explicit invalidation closes: the memo
        // still serves the pre-churn subtree verdict…
        let stale = check_host_cached(&resolver, &ctx, &customer, &policy, &cache);
        assert_eq!(stale.result, SpfResult::Pass, "TTL alone cannot see churn");

        // …until the churn delta invalidates the domain's key family.
        let removed = cache.invalidate_domain(&provider);
        assert!(removed >= 1, "expected resident verdicts for the domain");
        let fresh = check_host_cached(&resolver, &ctx, &customer, &policy, &cache);
        assert_eq!(fresh.result, SpfResult::Fail);
        assert!(cache.stats().is_consistent());

        // Unrelated domains' entries survive domain-scoped invalidation.
        let steady = DomainName::parse("steady.example").unwrap();
        store.add_txt(&steady, "v=spf1 include:steady-inc.example -all");
        store.add_txt(
            &DomainName::parse("steady-inc.example").unwrap(),
            "v=spf1 ip4:192.0.2.7 -all",
        );
        let steady_ctx = EvalContext::mail_from(ip, "attacker", steady.clone());
        let _ = check_host_cached(&resolver, &steady_ctx, &steady, &policy, &cache);
        let len_before = cache.len();
        // The fresh customer probe re-memoized the provider subtree, so
        // exactly that one entry goes; the steady family stays resident.
        let removed_again = cache.invalidate_domain(&provider);
        assert_eq!(cache.len(), len_before - removed_again as usize);
        assert_eq!(
            cache.invalidate_domain(&DomainName::parse("steady-inc.example").unwrap()),
            1,
            "steady include subtree must have survived provider invalidation"
        );
        assert!(cache.stats().is_consistent());
    }

    /// The compiled-policy twin of the stale-verdict pin: a compiled
    /// artifact is a batch of memoized DNS answers, so a churn delta
    /// must evict it immediately rather than wait out the TTL.
    #[test]
    fn compiled_policy_invalidation_forces_recompile_before_ttl() {
        use spf_core::{compile_policy, CompileConfig};
        use spf_dns::{ZoneResolver, ZoneStore};

        let store = Arc::new(ZoneStore::new());
        let domain = DomainName::parse("compiled.example").unwrap();
        store.add_txt(&domain, "v=spf1 ip4:198.51.100.0/24 -all");
        let resolver = ZoneResolver::new(Arc::clone(&store));
        let clock = Arc::new(VirtualClock::new());
        let cache = CompiledPolicyCache::new(
            TtlLruConfig::new(64, Duration::from_secs(3600)),
            Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
        );
        let compiled = Arc::new(compile_policy(
            &resolver,
            &domain,
            &CompileConfig::default(),
        ));
        cache.insert(domain.clone(), compiled);
        assert!(cache.get(&domain).is_some());

        // Zone churns; the artifact is stale NOW, TTL or not.
        store.replace_txt(&domain, "v=spf1 -all");
        assert!(cache.invalidate(&domain));
        assert!(cache.get(&domain).is_none(), "stale artifact must be gone");
        assert!(!cache.invalidate(&domain), "nothing left to invalidate");
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert!(stats.is_consistent(), "{stats:?}");
    }

    #[test]
    fn tiny_capacity_still_admits_per_stripe() {
        let (lru, _clock) = cache(1, 4, 1_000);
        for k in 0..4 {
            lru.insert(Key(k), k);
        }
        // One entry per stripe survives (capacity is clamped to ≥1 per
        // stripe); keys 0..4 land on distinct stripes by construction.
        assert_eq!(lru.len(), 4);
        assert!(lru.stats().is_consistent());
    }
}
