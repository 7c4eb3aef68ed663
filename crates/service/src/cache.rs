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
//!   deterministic [`CacheKey`] stripes the keep-first
//!   [`ShardedCache`](spf_types::ShardedCache) uses, and each
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
use spf_core::{
    auth_layers, AuthCacheStats, BudgetKey, DmarcDisposition, FetchedRecord, MtaStsMode,
    SubtreeVerdict, VerdictCache, VerdictKey,
};
use spf_dns::{Clock, Resolver};
use spf_types::{stripe_index, CacheKey, DomainHashBuilder, DomainName, DEFAULT_CACHE_SHARDS};

/// Capacity / expiry policy for a [`TtlLru`].
#[derive(Debug, Clone, Copy)]
pub struct TtlLruConfig {
    /// Total entry budget, divided evenly across the
    /// [`DEFAULT_CACHE_SHARDS`] stripes (each stripe holds at least one
    /// entry, so tiny capacities still admit work).
    pub capacity: usize,
    /// Entries older than this are never served.
    pub ttl: Duration,
}

impl TtlLruConfig {
    /// A config with `capacity` entries and `ttl` expiry.
    pub fn new(capacity: usize, ttl: Duration) -> TtlLruConfig {
        TtlLruConfig { capacity, ttl }
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
    fn stat_items(&self) -> Vec<spf_types::StatItem> {
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
        let per_stripe_capacity = config.capacity.div_ceil(DEFAULT_CACHE_SHARDS).max(1);
        TtlLru {
            stripes: (0..DEFAULT_CACHE_SHARDS)
                .map(|_| Mutex::default())
                .collect(),
            per_stripe_capacity,
            ttl: config.ttl,
            clock,
        }
    }

    fn stripe(&self, key: &K) -> &Mutex<Stripe<K, V>> {
        &self.stripes[stripe_index(key.shard_hash(), self.stripes.len())]
    }

    /// Probe for a live entry. An expired resident is removed, counted
    /// as one expiration and one miss, and `None` is returned — a stale
    /// value is never observable through this method.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_as_of(key).map(|(value, _)| value)
    }

    /// [`get`](Self::get), with the live entry's `as_of`: the time the
    /// data it holds was read, one TTL before it expires.
    fn get_as_of(&self, key: &K) -> Option<(V, Duration)> {
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
        stripe
            .map
            .get(key)
            .map(|e| (e.value.clone(), e.expires_at.saturating_sub(self.ttl)))
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
    /// mirroring [`ShardedCache`](spf_types::ShardedCache): concurrent
    /// computations of the same key produce identical values, so the
    /// race is benign); a stale resident is expired and replaced; at
    /// capacity the stripe's least recently probed entry is evicted
    /// first.
    pub fn insert(&self, key: K, value: V) {
        let now = self.clock.now();
        self.admit(key, value, now, now);
    }

    /// [`insert`](Self::insert) a value built only from data read at or
    /// after `as_of`: it expires a TTL after `as_of`, not a TTL after
    /// now, so however long after `as_of` it was built, nothing it holds
    /// is served past one TTL of age.
    pub fn insert_as_of(&self, key: K, value: V, as_of: Duration) {
        self.admit(key, value, self.clock.now(), as_of);
    }

    fn admit(&self, key: K, value: V, now: Duration, as_of: Duration) {
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
                expires_at: as_of.saturating_add(self.ttl),
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
    fn invalidate_where(&self, mut pred: impl FnMut(&K) -> bool) -> u64 {
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

/// The service's [`VerdictCache`]: a [`TtlLru`] over subtree verdicts
/// and two more on the same config and clock, over fetched records and
/// over each domain's DMARC and MTA-STS layers (what a stacked query
/// adds to its SPF verdict).
///
/// Layering note: `check_host_cached` consults this memo for whole
/// subtree verdicts, so one query's work populates entries every later
/// query sharing an include subtree reuses, and for every record of the
/// tree, so a query from a new address re-walks the tree without
/// re-reading or re-parsing it — until the TTL lapses, after which the
/// next probe re-resolves against the live zone. Verdict bytes stay
/// identical to bare `check_host` for the reasons DESIGN.md §8
/// establishes (entry-relative counters, cacheability guards); the TTL
/// only bounds *staleness* relative to zone mutation. A verdict built
/// from memoized entries expires one TTL after the oldest of them was
/// read ([`TtlLru::insert_as_of`]), so nothing served is older than one
/// TTL. The layers are read live on a miss and expire a TTL later, like
/// the verdicts, so a `_dmarc` change shows within one TTL too.
pub struct ServiceVerdictCache {
    inner: TtlLru<VerdictKey, Arc<SubtreeVerdict>>,
    records: TtlLru<DomainName, Arc<FetchedRecord>>,
    layers: TtlLru<DomainName, (DmarcDisposition, MtaStsMode)>,
}

impl ServiceVerdictCache {
    /// Build the verdict, record and layer memos with `config`'s policy
    /// on `clock`.
    pub fn new(config: TtlLruConfig, clock: Arc<dyn Clock>) -> ServiceVerdictCache {
        ServiceVerdictCache {
            inner: TtlLru::new(config, Arc::clone(&clock)),
            records: TtlLru::new(config, Arc::clone(&clock)),
            layers: TtlLru::new(config, clock),
        }
    }

    /// `domain`'s DMARC disposition and MTA-STS mode, read through
    /// `resolver` on a miss or once the memoized pair is a TTL old.
    pub fn layers<R: Resolver + ?Sized>(
        &self,
        resolver: &R,
        domain: &DomainName,
    ) -> (DmarcDisposition, MtaStsMode) {
        self.layers.get(domain).unwrap_or_else(|| {
            let fresh = auth_layers(resolver, domain, None);
            self.layers.insert(domain.clone(), fresh);
            fresh
        })
    }

    /// Layer-memo counters in the frozen-zone [`AuthCacheStats`] shape:
    /// one probe reads both layers, so each counts it.
    pub fn layer_stats(&self) -> AuthCacheStats {
        let layers = self.layers.stats();
        AuthCacheStats {
            dmarc_hits: layers.hits,
            dmarc_misses: layers.misses,
            sts_hits: layers.hits,
            sts_misses: layers.misses,
        }
    }

    /// Aggregated verdict-memo counters.
    pub fn stats(&self) -> TtlLruStats {
        self.inner.stats()
    }

    /// Aggregated record-memo counters.
    pub fn record_stats(&self) -> TtlLruStats {
        self.records.stats()
    }

    /// Per-stripe counters (the shard-counter-sum test's view).
    pub fn stripe_stats(&self) -> Vec<TtlLruStats> {
        self.inner.stripe_stats()
    }

    /// Drop every memoized verdict involving `domain` — all `(domain,
    /// ip, budget)` keys — and its memoized record and layers, so a
    /// churned domain is never served a verdict computed against the old
    /// zone, even before its TTL expires. Returns how many verdicts were
    /// dropped.
    ///
    /// Scope note: this removes the entries keyed *at* `domain`, which
    /// is exactly right under the churn locality contract (a delta
    /// rewrites only the named domain's own records); a provider-style
    /// mutation under a domain other customers include must invalidate
    /// each affected root (or simply not be modeled as a churn delta).
    pub fn invalidate_domain(&self, domain: &DomainName) -> u64 {
        self.records.invalidate(domain);
        self.layers.invalidate(domain);
        self.inner.invalidate_where(|key| key.domain == *domain)
    }

    /// Resident verdicts.
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
    ) -> Option<(Arc<SubtreeVerdict>, Duration)> {
        self.inner.get_as_of(&VerdictKey {
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
        as_of: Option<Duration>,
    ) {
        let key = VerdictKey {
            domain: domain.clone(),
            ip,
            budget,
        };
        match as_of {
            Some(as_of) => self.inner.insert_as_of(key, verdict, as_of),
            None => self.inner.insert(key, verdict),
        }
    }

    fn record(&self, domain: &DomainName) -> Option<(Arc<FetchedRecord>, Duration)> {
        self.records.get_as_of(domain)
    }

    fn put_record(&self, domain: &DomainName, record: Arc<FetchedRecord>) {
        self.records.insert(domain.clone(), record);
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

    fn cache(capacity: usize, ttl_secs: u64) -> (TtlLru<Key, u64>, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        let lru = TtlLru::new(
            TtlLruConfig::new(capacity, Duration::from_secs(ttl_secs)),
            Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
        );
        (lru, clock)
    }

    #[test]
    fn hit_then_expire_then_miss() {
        let (lru, clock) = cache(8, 10);
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
    fn insert_as_of_expires_a_ttl_after_as_of_not_after_now() {
        let (lru, clock) = cache(8, 10);
        clock.advance(Duration::from_secs(6));
        lru.insert_as_of(Key(1), 1, Duration::ZERO);
        lru.insert(Key(2), 2);
        clock.advance(Duration::from_secs(5));
        assert_eq!(lru.get(&Key(1)), None, "built from t=0 data: dead at 10");
        assert_eq!(lru.get(&Key(2)), Some(2), "inserted at 6: live until 16");
        assert!(lru.stats().is_consistent());
    }

    #[test]
    fn lru_evicts_least_recently_probed() {
        // Two entries a stripe; keys 1, 17 and 33 share stripe 1.
        let (lru, _clock) = cache(2 * DEFAULT_CACHE_SHARDS, 1_000);
        lru.insert(Key(1), 1);
        lru.insert(Key(17), 17);
        assert_eq!(lru.get(&Key(1)), Some(1)); // 17 is now LRU
        lru.insert(Key(33), 33);
        assert_eq!(lru.get(&Key(17)), None, "LRU victim must be key 17");
        assert_eq!(lru.get(&Key(1)), Some(1));
        assert_eq!(lru.get(&Key(33)), Some(33));
        let stats = lru.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.is_consistent());
    }

    #[test]
    fn keep_first_on_live_resident_replace_on_stale() {
        let (lru, clock) = cache(8, 10);
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

    /// The shard-counter-sum pin (`ShardedCache` carries its twin):
    /// under genuinely concurrent probes, inserts, expirations, and
    /// evictions, the per-stripe counters — mutated only inside each
    /// stripe's lock, in the same critical section as the map — must
    /// sum to a consistent whole at quiescence.
    #[test]
    fn stripe_counters_sum_consistently_under_concurrent_load() {
        let (lru, clock) = cache(32, 1);
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
        let (lru, _clock) = cache(8, 1_000);
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
        let (lru, _clock) = cache(64, 1_000);
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

        // The staleness window is a churned domain that others include:
        // the customer's root record and the provider's record are both
        // memoized, and the provider subtree the customer includes
        // answers from the verdict memo without reading either.
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

    /// A world on a [`VirtualClock`] with a 10 s verdict-memo TTL, and
    /// an evaluator that answers `domain` for `ip` through the memo and
    /// bare, for the staleness pins below.
    struct TtlWorld {
        store: Arc<spf_dns::ZoneStore>,
        clock: Arc<VirtualClock>,
        cache: ServiceVerdictCache,
    }

    impl TtlWorld {
        fn new(records: &[(&str, &str)]) -> TtlWorld {
            let store = Arc::new(spf_dns::ZoneStore::new());
            for (name, text) in records {
                store.add_txt(&DomainName::parse(name).unwrap(), text);
            }
            let clock = Arc::new(VirtualClock::new());
            let cache = ServiceVerdictCache::new(
                TtlLruConfig::new(1024, Duration::from_secs(10)),
                Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
            );
            TtlWorld {
                store,
                clock,
                cache,
            }
        }

        /// Move the clock forward to `secs` after its start.
        fn at(&self, secs: u64) {
            self.clock
                .advance(Duration::from_secs(secs).saturating_sub(self.clock.now()));
        }

        /// `(cached, bare)` results for `domain` from `ip` at `at_secs`.
        fn eval(
            &self,
            at_secs: u64,
            domain: &str,
            ip: &str,
        ) -> (spf_core::SpfResult, spf_core::SpfResult) {
            use spf_core::{check_host, check_host_cached, EvalContext, EvalPolicy};
            self.at(at_secs);
            let resolver = spf_dns::ZoneResolver::new(Arc::clone(&self.store));
            let domain = DomainName::parse(domain).unwrap();
            let ctx = EvalContext::mail_from(ip.parse().unwrap(), "sender", domain.clone());
            let policy = EvalPolicy::default();
            let cached = check_host_cached(&resolver, &ctx, &domain, &policy, &self.cache);
            let bare = check_host(&resolver, &ctx, &domain, &policy);
            (cached.result, bare.result)
        }

        fn mutate(&self, at_secs: u64, name: &str, text: &str) {
            self.at(at_secs);
            self.store
                .replace_txt(&DomainName::parse(name).unwrap(), text);
        }
    }

    /// A subtree verdict that replays a memoized inner verdict is as old
    /// as that inner verdict's data, and expires with it: `a` is
    /// re-evaluated at t=19 from `b`'s verdict of t=10, so it must not
    /// outlive t=20 — served at t=24 it would carry `b`'s answer from
    /// before the t=12 mutation, 14 s old under a 10 s TTL.
    #[test]
    fn a_verdict_replaying_an_older_verdict_expires_with_it() {
        use spf_core::SpfResult::{Fail, Pass};
        let world = TtlWorld::new(&[
            ("r1.example", "v=spf1 include:a.example -all"),
            ("a.example", "v=spf1 include:b.example -all"),
            ("r2.example", "v=spf1 include:c.example -all"),
            ("c.example", "v=spf1 include:b.example -all"),
            ("b.example", "v=spf1 ip4:192.0.2.7 -all"),
        ]);
        let ip = "192.0.2.7";
        assert_eq!(world.eval(0, "r1.example", ip), (Pass, Pass));
        // `b`'s verdict of t=0 lapsed at t=10: r2 re-memoizes it.
        assert_eq!(world.eval(10, "r2.example", ip), (Pass, Pass));
        world.mutate(12, "b.example", "v=spf1 -all");
        // Inside one TTL of `b`'s read the memo may still say pass.
        assert_eq!(world.eval(19, "r1.example", ip), (Pass, Fail));
        assert_eq!(world.eval(24, "r1.example", ip), (Fail, Fail));
        assert!(world.cache.stats().is_consistent());
    }

    /// A verdict built from a memoized record is as old as the record:
    /// IP₂'s provider verdict of t=9 is built from the provider record
    /// read at t=0, so at t=11 it has lapsed and IP₂ sees the t=5
    /// mutation.
    #[test]
    fn a_verdict_built_from_a_memoized_record_expires_with_it() {
        use spf_core::SpfResult::{Fail, Pass};
        let world = TtlWorld::new(&[
            ("customer.example", "v=spf1 include:provider.example -all"),
            ("provider.example", "v=spf1 ip4:192.0.2.0/24 -all"),
        ]);
        assert_eq!(world.eval(0, "customer.example", "192.0.2.1"), (Pass, Pass));
        world.mutate(5, "provider.example", "v=spf1 -all");
        assert_eq!(world.eval(9, "customer.example", "192.0.2.2"), (Pass, Fail));
        assert_eq!(
            world.eval(11, "customer.example", "192.0.2.2"),
            (Fail, Fail)
        );
        let records = world.cache.record_stats();
        assert!(records.hits >= 2, "{records:?}");
        assert!(records.is_consistent(), "{records:?}");
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
        let cache: TtlLru<DomainName, Arc<spf_core::CompiledPolicy>> = TtlLru::new(
            TtlLruConfig::new(64, Duration::from_secs(3600)),
            Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
        );
        let compiled = Arc::new(compile_policy(
            &resolver,
            &domain,
            &CompileConfig::default(),
        ));
        cache.insert_as_of(domain.clone(), compiled, clock.now());
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
        let (lru, _clock) = cache(1, 1_000);
        for k in 0..4 {
            lru.insert(Key(k), k);
        }
        // One entry per stripe survives (capacity is clamped to ≥1 per
        // stripe); keys 0..4 land on distinct stripes by construction.
        assert_eq!(lru.len(), 4);
        assert!(lru.stats().is_consistent());
    }
}
