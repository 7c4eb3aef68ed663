//! The keep-first memo map: one lock-striped map for every engine that
//! runs over a frozen zone.
//!
//! The paper's crawler shared one record cache across 150 query endpoints
//! so that "only for the first domain the include mechanism is processed,
//! all others hit the cache". [`ShardedCache`] is that cache in process:
//! the walker's per-domain analyses, the spoof matrix's subtree verdicts
//! and records, the DMARC/MTA-STS layer memo and the compiler's shared
//! subtrees all live in one. The map is striped into
//! [`DEFAULT_CACHE_SHARDS`] independently locked shards selected by the
//! key's precomputed hash, so lookups and inserts for different keys
//! proceed in parallel and contention is limited to genuine same-shard
//! collisions.
//!
//! # Protocol and invariants
//!
//! * **Probe, compute outside the lock, first insert wins.** A caller
//!   [`get`](ShardedCache::get)s, computes on a miss without holding any
//!   lock, and [`insert_if_absent`](ShardedCache::insert_if_absent)s.
//!   Concurrent computors may race to the same key; the first inserted
//!   value is kept and later ones are dropped, so every reader observes
//!   one canonical value. Every user memoizes a deterministic function of
//!   a frozen zone, so the racing copies are identical and the race is
//!   benign.
//! * **Deterministic shard selection.** The shard index is
//!   [`stripe_index`]`(shard_hash, shards)` — a pure function of the key
//!   (FNV-1a for names), not of `RandomState`, so shard placement is
//!   reproducible across runs. It folds in the hash's high half, so the
//!   keys of one shard do not crowd into the same home buckets of that
//!   shard's map.
//! * **Counting.** Every [`get`](ShardedCache::get) is one probe and
//!   counts one hit or one miss, with relaxed atomics: the counters never
//!   influence control flow, only reporting, so `hits + misses` equals
//!   the probes made once the probing threads are joined.
//! * **Lock poisoning is recovered, not propagated.** Every write is one
//!   `HashMap` call on a whole value, so a thread that panicked while
//!   holding a stripe left either its entry or none; the next locker
//!   takes the stripe as it is. A panic in one worker therefore never
//!   turns every later probe of the stripe into a second panic.
//!
//! Nothing is evicted and nothing expires: a memo is sound for one zone
//! state, and its owner bounds its life (drops it, or [`ShardedCache::remove`]s
//! a key whose zone data changed). Bounded, TTL-expiring memos are the
//! service's `TtlLru`, not this map.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use serde::{Deserialize, Serialize};

use crate::domain::{stripe_index, DomainHashBuilder, DomainName};

/// A key a [`ShardedCache`] can stripe on: hashable/equatable for the
/// per-shard map, plus a deterministic, precomputed hash for shard
/// selection (never `RandomState`, so placement is reproducible).
pub trait CacheKey: Hash + Eq + Clone {
    /// The deterministic hash used to pick a stripe.
    fn shard_hash(&self) -> u64;
}

impl CacheKey for DomainName {
    fn shard_hash(&self) -> u64 {
        self.precomputed_hash()
    }
}

/// Stripe count of every [`ShardedCache`], and the default of the
/// service's `TtlLruConfig`.
///
/// 16 shards keep same-shard collisions rare for worker counts up to the
/// paper's 150-endpoint analogue while costing only 16 lock words
/// (docs/history/BENCH_2.json swept 1 vs. 16).
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// Aggregated cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Probes that found an entry.
    pub hits: u64,
    /// Probes that found nothing (the caller then computes and inserts).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all probes (0.0 when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type Map<K, V> = HashMap<K, V, DomainHashBuilder>;

struct Shard<K, V> {
    map: RwLock<Map<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K, V> Shard<K, V> {
    // The module's poison policy: a poisoned stripe is taken as it is.
    fn read(&self) -> RwLockReadGuard<'_, Map<K, V>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Map<K, V>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The lock-striped keep-first memo map (see the module docs for the
/// protocol and invariants), keyed by any [`CacheKey`] (domain names by
/// default). `V` is cloned out on hit, so it should be a cheap handle —
/// an `Arc` or a small `Copy` value.
pub struct ShardedCache<V, K = DomainName> {
    shards: Box<[Shard<K, V>]>,
}

impl<V: Clone, K: CacheKey> Default for ShardedCache<V, K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone, K: CacheKey> ShardedCache<V, K> {
    /// An empty cache of [`DEFAULT_CACHE_SHARDS`] stripes.
    pub fn new() -> Self {
        ShardedCache {
            shards: (0..DEFAULT_CACHE_SHARDS)
                .map(|_| Shard::default())
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[stripe_index(key.shard_hash(), self.shards.len())]
    }

    /// Probe for `key`, counting the probe as a hit or miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        let found = shard.read().get(key).cloned();
        let counter = if found.is_some() {
            &shard.hits
        } else {
            &shard.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Insert `value` unless `key` is already present; returns the resident
    /// value either way (the racing loser's value is dropped).
    pub fn insert_if_absent(&self, key: &K, value: V) -> V {
        self.shard(key)
            .write()
            .entry(key.clone())
            .or_insert(value)
            .clone()
    }

    /// Drop the entry under `key`, if resident. Returns whether an entry
    /// was removed. Probe counters are untouched — removal is a zone
    /// change, not a probe. The churn engine evicts a re-published
    /// domain's memoized analysis this way before its incremental
    /// re-crawl.
    pub fn remove(&self, key: &K) -> bool {
        self.shard(key).write().remove(key).is_some()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters are kept; they describe probes, not
    /// residency).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().clear();
        }
    }

    /// Copy out every `(key, value)` pair, shard by shard.
    pub fn snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            out.extend(shard.read().iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Counters summed over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in self.shards.iter() {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.entries += shard.read().len() as u64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn dom(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        assert_eq!(cache.get(&dom("a.example")), None);
        cache.insert_if_absent(&dom("a.example"), 7);
        assert_eq!(cache.get(&dom("a.example")), Some(7));
        assert_eq!(cache.get(&dom("b.example")), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn insert_if_absent_keeps_first_value() {
        let cache: ShardedCache<u32> = ShardedCache::new();
        assert_eq!(cache.insert_if_absent(&dom("x.example"), 1), 1);
        assert_eq!(cache.insert_if_absent(&dom("x.example"), 2), 1);
        assert_eq!(cache.get(&dom("x.example")), Some(1));
    }

    #[test]
    fn shard_selection_is_deterministic_and_total() {
        let cache: ShardedCache<usize> = ShardedCache::new();
        for i in 0..64 {
            cache.insert_if_absent(&dom(&format!("d{i}.example")), i);
        }
        assert_eq!(cache.len(), 64);
        let occupied = cache.shards.iter().filter(|s| !s.read().is_empty());
        assert!(occupied.count() > 1, "64 names spread over the stripes");
        // Every entry is findable again (same shard on re-probe).
        for i in 0..64 {
            assert_eq!(cache.get(&dom(&format!("d{i}.example"))), Some(i));
        }
    }

    #[test]
    fn composite_keys_stripe_deterministically() {
        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        struct Key(DomainName, u32);
        impl CacheKey for Key {
            fn shard_hash(&self) -> u64 {
                self.0
                    .precomputed_hash()
                    .rotate_left(7)
                    .wrapping_mul(0x100000001b3)
                    ^ u64::from(self.1)
            }
        }
        let cache: ShardedCache<u32, Key> = ShardedCache::new();
        let a = Key(dom("a.example"), 1);
        let b = Key(dom("a.example"), 2);
        cache.insert_if_absent(&a, 10);
        cache.insert_if_absent(&b, 20);
        // Same domain, different composite component: distinct entries.
        assert_eq!(cache.get(&a), Some(10));
        assert_eq!(cache.get(&b), Some(20));
        assert_eq!(cache.len(), 2);
        // Shard placement is a pure function of the key.
        assert!(std::ptr::eq(cache.shard(&a), cache.shard(&a.clone())));
        let shard = cache.shard(&a);
        let before = shard.hits.load(Ordering::Relaxed);
        assert_eq!(cache.get(&a), Some(10));
        assert_eq!(shard.hits.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn clear_and_snapshot() {
        let cache: ShardedCache<u8> = ShardedCache::new();
        cache.insert_if_absent(&dom("a.example"), 1);
        cache.insert_if_absent(&dom("b.example"), 2);
        let mut snap = cache.snapshot();
        snap.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].1, 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_probers_agree_on_the_first_insert() {
        const THREADS: usize = 8;
        const KEYS: usize = 64;
        const ROUNDS: usize = 4;
        let keys: Vec<DomainName> = (0..KEYS).map(|i| dom(&format!("k{i}.example"))).collect();
        let cache: ShardedCache<Arc<(usize, usize)>> = ShardedCache::new();
        let start = std::sync::Barrier::new(THREADS);
        // Each thread probes every key, in its own order, and inserts
        // its own value on a miss; it returns what it read per key. The
        // barrier releases all of them onto the empty map at once, so
        // first probes of one key race.
        let seen: Vec<Vec<Arc<(usize, usize)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (cache, keys, start) = (&cache, &keys, &start);
                    scope.spawn(move || {
                        let mut read = vec![None; KEYS];
                        start.wait();
                        for round in 0..ROUNDS {
                            for step in 0..KEYS {
                                let k = (step * (2 * t + 1) + round) % KEYS;
                                let value = cache.get(&keys[k]).unwrap_or_else(|| {
                                    cache.insert_if_absent(&keys[k], Arc::new((k, t)))
                                });
                                let first = read[k].get_or_insert_with(|| Arc::clone(&value));
                                assert!(Arc::ptr_eq(first, &value), "key {k} changed value");
                            }
                        }
                        read.into_iter().map(Option::unwrap).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, (THREADS * KEYS * ROUNDS) as u64);
        assert_eq!(stats.entries, KEYS as u64);
        assert!(stats.misses >= KEYS as u64);
        for (k, key) in keys.iter().enumerate() {
            let resident = cache.get(key).unwrap();
            assert_eq!(resident.0, k);
            for thread in &seen {
                assert!(Arc::ptr_eq(&thread[k], &resident), "key {k} diverged");
            }
        }
    }

    #[test]
    fn a_poisoned_stripe_is_recovered() {
        let cache: ShardedCache<u8> = ShardedCache::new();
        let key = dom("p.example");
        cache.insert_if_absent(&key, 1);
        let poisoned = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cache.shard(&key).write();
                    panic!("holder panics");
                })
                .join()
        });
        assert!(poisoned.is_err());
        assert!(cache.shard(&key).map.is_poisoned());
        assert_eq!(cache.get(&key), Some(1));
        assert_eq!(cache.insert_if_absent(&dom("q.example"), 2), 2);
        assert!(cache.remove(&key));
    }
}
